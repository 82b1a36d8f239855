#!/usr/bin/env bash
# Builds memgazed and the benchmark from this checkout, then runs one
# benchmark run. Run from the checkout's root:
#
#   bash perfbench/run.sh --workload cold_analyze --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the binaries, the daemons' data
# directories and the traced run's span files.
set -euo pipefail

root=$(pwd)
if [[ ! -f go.mod || ! -d cmd/memgazed ]]; then
	echo "run.sh: no memgazed source in $root (run from the checkout's root)" >&2
	exit 1
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry settings in the
# checkout too. With a fresh config directory the go command would
# start a detached telemetry child that outlives this script, so
# telemetry is switched off (in that directory) before any other go
# command runs.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
       GOTOOLCHAIN=local GOPROXY=off GOENV=off GOWORK=off XDG_CONFIG_HOME="$out/config"
go telemetry off >&2

# Build logs go to stderr: standard output carries only the result.
go build -o "$out/bin/memgazed" ./cmd/memgazed >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -bin "$out/bin/memgazed" -work "$out/work" "$@"
