// Command perfbench is the memgazed benchmark. It drives the real
// memgazed binary, started as child processes, over loopback HTTP from
// one closed-loop client, on inputs generated from a seed, and prints
// one JSON result as the last line of its standard output.
//
//	perfbench -bin memgazed -work DIR -workload cold_analyze -seed 1 -seconds 30 -trace 0
//
// Workloads, metrics and the traced run are described in README.md;
// run.sh builds memgazed and this program from the checkout and runs
// it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// workloads maps each workload to its runner.
var workloads = map[string]func(*config, *outcome, *client) error{
	"cold_analyze":  runCold,
	"ingest_stream": runIngest,
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: cold_analyze or ingest_stream")
	seed := fs.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 30, "accepted for the driver's interface; a run's length is set by its fixed operation count")
	traced := fs.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
	bin := fs.String("bin", "", "memgazed binary")
	work := fs.String("work", "", "scratch directory for data dirs and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*workload]
	if !ok || *bin == "" || *work == "" || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %s), -bin, -work, -seconds >= 1 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg := &config{workload: *workload, bin: *bin, seed: *seed, traced: *traced == 1,
		work: filepath.Join(*work, *workload)}
	if err := os.RemoveAll(cfg.work); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	o := &outcome{layers: map[string]float64{}}
	if cfg.traced {
		o.tr = newTracer()
	}
	c := newClient()
	err := runner(cfg, o, c)
	c.close()
	if err == nil && len(o.lat) == 0 {
		err = errNoOps
	}
	if err != nil {
		// A set-up or measurement failure leaves nothing to report.
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if o.firstErr != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d operations failed; first: %v\n", cfg.workload, o.failed, o.attempted, o.firstErr)
	}

	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed}
	if cfg.traced {
		res.Metrics = tracedMetrics(o)
		fmt.Fprintf(stdout, "op_p50_ms traced %.4f (n=%d), untraced %.4f (n=%d)\n",
			median(o.latTraced), len(o.latTraced), median(o.lat), len(o.lat))
		if err := writeTraceFiles(cfg, o, stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
	} else {
		res.Metrics = endToEnd(o)
		// The p90 is printed, not declared: see README.md.
		if p90, ok := percentile(o.lat, 0.90); ok {
			fmt.Fprintf(stdout, "%-22s %14.4f %-6s (n=%d)\n", "op_p90_ms", p90, "ms", len(o.lat))
		}
	}
	fmt.Fprintf(stdout, "%-22s %14.6f %-6s (%d failed of %d)\n", "error_rate", errorRate(o.failed, o.attempted), "ratio", o.failed, o.attempted)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(stdout, "%-28s %14.4f %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// endToEnd computes the untraced run's metrics. Throughput is over the
// summed operation latencies, so like them it leaves out the client's
// reply checks.
func endToEnd(o *outcome) map[string]metric {
	secs := 0.0
	for _, ms := range o.lat {
		secs += ms / 1e3
	}
	return map[string]metric{
		"setup_s":               {median(o.setup), "s"},
		"ops_per_s":             {float64(len(o.lat)) / secs, "1/s"},
		"records_per_s":         {float64(o.records) / secs, "1/s"},
		"op_p50_ms":             {median(o.lat), "ms"},
		"server_peak_rss_mb":    {o.rssMB, "MiB"},
		"disk_bytes_per_record": {float64(o.diskBytes) / float64(max(1, o.stored)), "B"},
	}
}

// tracedMetrics computes the traced run's per-layer metrics: every
// layer metric, 0 where the workload's operations do not reach the
// layer.
func tracedMetrics(o *outcome) map[string]metric {
	spanLayers(o)
	if miss := o.layers["server.analyze_miss_ms"]; miss > 0 {
		// What the daemon adds to an uncached analyze beyond the engine
		// suite and marshalling: HTTP, routing, cache and queueing.
		o.layers["server.overhead_ms"] = miss - o.layers["engine.suite_ms"] - o.layers["server.marshal_ms"]
	}
	o.layers["bench.tracing_overhead_ms"] = median(o.latTraced) - median(o.lat)
	m := map[string]metric{}
	for _, lm := range layerMetrics {
		m[lm.name] = metric{o.layers[lm.name], lm.unit}
	}
	return m
}

// writeTraceFiles writes the span file and the self-time table under
// the work directory and prints the table.
func writeTraceFiles(cfg *config, o *outcome, stdout io.Writer) error {
	dir := filepath.Join(filepath.Dir(cfg.work), "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	if err := o.tr.writeSpans(base + ".spans.json"); err != nil {
		return err
	}
	f, err := os.Create(base + ".selftime.txt")
	if err != nil {
		return err
	}
	rows := selfTable(o.tr.spans)
	writeTable(io.MultiWriter(f, stdout), rows)
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "spans: %s.spans.json\n", base)
	return nil
}
