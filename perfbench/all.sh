#!/usr/bin/env bash
# Runs every workload for one seed and prints each workload's metrics
# by name and unit. Run from the checkout's root:
#
#   bash perfbench/all.sh 1          # seed 1
#   bash perfbench/all.sh 1 30 1    # the traced run instead
set -euo pipefail

seed=${1:?usage: all.sh SEED [SECONDS] [TRACE]}
seconds=${2:-30}
trace=${3:-0}
for w in cold_analyze ingest_stream; do
	echo "== $w (seed $seed)"
	bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace"
done
