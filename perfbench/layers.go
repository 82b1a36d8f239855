package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/memgaze/memgaze-go/internal/analysis"
	"github.com/memgaze/memgaze-go/internal/engine"
	"github.com/memgaze/memgaze-go/internal/interval"
	"github.com/memgaze/memgaze-go/internal/pt"
	"github.com/memgaze/memgaze-go/internal/storage"
	"github.com/memgaze/memgaze-go/internal/trace"
	"github.com/memgaze/memgaze-go/internal/zoom"
)

const (
	// replayOps is how many of a traced run's inputs are replayed in
	// process through each layer's public functions.
	replayOps = 10
	// scalingOps is how many inputs are also folded at twice the size
	// for engine.stream_accum_scaling.
	scalingOps = 3
	// blockSize is the engine's default access-block size.
	blockSize = 64
)

// layerMetrics lists every per-layer metric. A workload reports 0 for a
// layer its operations do not pass through; see README.md.
var layerMetrics = []struct{ name, unit string }{
	{"pt.read_capture_ms", "ms"},
	{"pt.build_ms", "ms"},
	{"pt.stream_build_ms", "ms"},
	{"pt.records_per_op", "count"},
	{"pt.corrupt_samples", "count"},
	{"engine.stream_accum_ms", "ms"},
	{"engine.stream_accum_scaling", "ratio"},
	{"trace.hash_ms", "ms"},
	{"trace.encode_ms", "ms"},
	{"trace.bytes_per_record", "B"},
	{"storage.put_ms", "ms"},
	{"storage.bytes_per_record", "B"},
	{"engine.suite_ms", "ms"},
	{"engine.suite_seq_ms", "ms"},
	{"engine.functions_ms", "ms"},
	{"engine.windows_ms", "ms"},
	{"engine.working-set_ms", "ms"},
	{"engine.reuse-intervals_ms", "ms"},
	{"engine.mrc_ms", "ms"},
	{"engine.confidence_ms", "ms"},
	{"engine.interval-tree_ms", "ms"},
	{"engine.zoom_ms", "ms"},
	{"engine.roi_ms", "ms"},
	{"analysis.sweep_seq_ms", "ms"},
	{"analysis.sweep_sharded_ms", "ms"},
	{"analysis.funcdiags_ms", "ms"},
	{"analysis.windows_ms", "ms"},
	{"interval.build_ms", "ms"},
	{"zoom.build_ms", "ms"},
	{"server.upload_ms", "ms"},
	{"server.analyze_miss_ms", "ms"},
	{"server.marshal_ms", "ms"},
	{"server.report_bytes", "B"},
	{"server.stream_ms", "ms"},
	{"server.overhead_ms", "ms"},
	{"server.analyze_hit_ms", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"cluster.proxy_hop_ms", "ms"},
	{"cluster.fanout_ms", "ms"},
	{"bench.tracing_overhead_ms", "ms"},
}

// spanLayers sets every "_ms" layer metric that a replay or probe has
// not set to the median duration of the spans named after it: the span
// name is the metric name without "_ms".
func spanLayers(o *outcome) {
	for _, lm := range layerMetrics {
		name, ok := strings.CutSuffix(lm.name, "_ms")
		if _, set := o.layers[lm.name]; set || !ok {
			continue
		}
		if d := o.tr.durations(name); len(d) > 0 {
			o.layers[lm.name] = median(d)
		}
	}
}

// replayStore opens a scratch segment store for storage.put, with the
// background compactor off so nothing runs between puts.
func replayStore(cfg *config) (*storage.Store, string, error) {
	dir := filepath.Join(cfg.work, "replay-store")
	st, err := storage.Open(storage.Config{Dir: dir, CompactInterval: -1})
	return st, dir, err
}

// buildStored is the shared tail of both upload paths' replays: hash,
// encode and store the built trace, as the daemon does.
func buildStored(tr *tracer, st *storage.Store, t *trace.Trace, root, op int) (size int64, err error) {
	var id string
	tr.timed("trace.hash", root, op, func() error {
		id, size = t.HashAndSize()
		return nil
	})
	var enc bytes.Buffer
	if err := tr.timed("trace.encode", root, op, func() error { return t.Write(&enc) }); err != nil {
		return 0, fmt.Errorf("encoding: %w", err)
	}
	meta := storage.Meta{Module: t.Module, Mode: t.Mode, Samples: t.NumSamples(), Records: t.NumRecords(),
		Rho: t.Rho(), Kappa: t.Kappa(), Uploaded: time.Unix(0, 0).UTC()}
	err = tr.timed("storage.put", root, op, func() error {
		_, err := st.Put(id, meta, size, t)
		return err
	})
	return size, err
}

// builtTotals accumulates what both replays report about the traces
// they build and store.
type builtTotals struct {
	records []float64 // per trace
	corrupt float64
	encoded int64 // encoded bytes over all traces
	total   int64 // records over all traces
}

func (b *builtTotals) add(t *trace.Trace, ds pt.DecodeStats, size int64) {
	b.records = append(b.records, float64(t.NumRecords()))
	b.corrupt += float64(ds.CorruptSamples)
	b.encoded += size
	b.total += int64(t.NumRecords())
}

// fill sets the record and byte metrics; dir is the scratch store.
func (b *builtTotals) fill(o *outcome, dir string) error {
	disk, err := dirBytes(dir)
	if err != nil {
		return err
	}
	o.layers["pt.records_per_op"] = median(b.records)
	o.layers["pt.corrupt_samples"] = b.corrupt
	o.layers["trace.bytes_per_record"] = float64(b.encoded) / float64(b.total)
	o.layers["storage.bytes_per_record"] = float64(disk) / float64(b.total)
	return nil
}

// replayCold runs cold_analyze's inputs through the layers a buffered
// PT upload and a default-suite analyze pass through: capture read,
// trace build, hash, encode, segment put, the engine suite (pooled,
// and at parallelism 1 with per-analysis spans), report marshalling,
// and the derived products the suite shares.
func replayCold(cfg *config, o *outcome, caps [][]byte) error {
	ctx := context.Background()
	tr := o.tr
	st, dir, err := replayStore(cfg)
	if err != nil {
		return err
	}
	defer st.Close()
	var built builtTotals
	for i, b := range caps {
		op := warmupOps + i
		root := tr.begin("replay", -1, op)
		var cp *pt.Capture
		if err := tr.timed("pt.read_capture", root, op, func() (err error) {
			cp, err = pt.ReadCapture(bytes.NewReader(b))
			return err
		}); err != nil {
			return fmt.Errorf("replay: reading capture: %w", err)
		}
		var t *trace.Trace
		var ds pt.DecodeStats
		if err := tr.timed("pt.build", root, op, func() (err error) {
			t, ds, err = cp.NewBuilder().Build(ctx)
			return err
		}); err != nil {
			return fmt.Errorf("replay: building: %w", err)
		}
		size, err := buildStored(tr, st, t, root, op)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		built.add(t, ds, size)

		var rep *engine.Report
		if err := tr.timed("engine.suite", root, op, func() (err error) {
			rep, err = engine.New(t).Run(ctx)
			return err
		}); err != nil {
			return fmt.Errorf("replay: suite: %w", err)
		}
		seq := tr.begin("engine.suite_seq", root, op)
		_, err = engine.New(t, engine.WithParallelism(1), engine.WithObserver(func(a engine.Analysis, d time.Duration) {
			tr.record("engine."+a.String(), d, seq, op)
		})).Run(ctx)
		tr.end(seq)
		if err != nil {
			return fmt.Errorf("replay: sequential suite: %w", err)
		}
		if err := tr.timed("server.marshal", root, op, func() error {
			_, err := json.Marshal(rep)
			return err
		}); err != nil {
			return fmt.Errorf("replay: marshalling: %w", err)
		}

		stats := analysis.StatsOf(t)
		parts := analysis.SweepDistances | analysis.SweepIntervals | analysis.SweepPresence
		steps := []struct {
			name string
			fn   func() error
		}{
			{"analysis.sweep_seq", func() error {
				_, err := analysis.NewSweepSharded(ctx, t, blockSize, parts, 1, stats)
				return err
			}},
			{"analysis.sweep_sharded", func() error {
				_, err := analysis.NewSweepSharded(ctx, t, blockSize, parts, runtime.GOMAXPROCS(0), stats)
				return err
			}},
			{"analysis.funcdiags", func() error {
				_, err := analysis.FunctionDiagnosticsSharded(ctx, t, blockSize, 0, stats)
				return err
			}},
			{"analysis.windows", func() error {
				pop, err := analysis.GlobalPopulationsSharded(ctx, t, 0)
				if err != nil {
					return err
				}
				_, err = analysis.WindowHistogramPop(ctx, t, analysis.PowerOfTwoWindows(4, 16), pop)
				return err
			}},
			{"interval.build", func() error {
				_, err := interval.BuildCtx(ctx, t, blockSize)
				return err
			}},
			{"zoom.build", func() error {
				_, err := zoom.BuildCtx(ctx, t, zoom.Config{Block: blockSize})
				return err
			}},
		}
		for _, s := range steps {
			if err := tr.timed(s.name, root, op, s.fn); err != nil {
				return fmt.Errorf("replay: %s: %w", s.name, err)
			}
		}
		tr.end(root)
	}
	return built.fill(o, dir)
}

// replayIngest runs ingest_stream's inputs through the layers a
// streamed PT upload passes through: the pipelined stream build alone,
// the same build folding windows into an engine.StreamAccum as the
// daemon does, then hash, encode and segment put. The first scalingOps
// inputs are also folded at twice the generator's size, so
// engine.stream_accum_scaling shows how the fold grows with the trace.
func replayIngest(cfg *config, o *outcome, caps [][]byte) error {
	st, dir, err := replayStore(cfg)
	if err != nil {
		return err
	}
	defer st.Close()
	tr := o.tr
	var built builtTotals
	var accumN, accum2N []float64
	for i, b := range caps {
		op := warmupOps + i
		root := tr.begin("replay", -1, op)
		t, ds, plain, folded, err := foldTimes(tr, b, "", root, op)
		if err != nil {
			return err
		}
		accumN = append(accumN, folded-plain)
		size, err := buildStored(tr, st, t, root, op)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		built.add(t, ds, size)
		tr.end(root)
	}
	for i := 0; i < scalingOps; i++ {
		b, err := genCaptureLoads(cfg.seed, warmupOps+i, 2*genLoads)
		if err != nil {
			return err
		}
		root := tr.begin("replay_2n", -1, warmupOps+i)
		_, _, plain, folded, err := foldTimes(tr, b, "_2n", root, warmupOps+i)
		if err != nil {
			return err
		}
		accum2N = append(accum2N, folded-plain)
		tr.end(root)
	}
	o.layers["engine.stream_accum_ms"] = median(accumN)
	if m := median(accumN); m > 0 {
		o.layers["engine.stream_accum_scaling"] = median(accum2N) / m
	}
	return built.fill(o, dir)
}

// foldTimes builds capture b through pt.BuildCaptureStream twice: alone
// (span pt.stream_build) and with an engine.StreamAccum sink as the
// daemon runs it (span engine.stream_accum); suffix tells the spans of
// the double-size inputs apart. It returns the folded build's trace and
// both durations in ms.
func foldTimes(tr *tracer, b []byte, suffix string, root, op int) (*trace.Trace, pt.DecodeStats, float64, float64, error) {
	ctx := context.Background()
	t0 := time.Now()
	sp := tr.begin("pt.stream_build"+suffix, root, op)
	_, _, err := pt.BuildCaptureStream(ctx, bytes.NewReader(b))
	tr.end(sp)
	plain := float64(time.Since(t0).Nanoseconds()) / 1e6
	if err != nil {
		return nil, pt.DecodeStats{}, 0, 0, fmt.Errorf("replay: stream build: %w", err)
	}
	acc := engine.NewStreamAccum(0)
	t0 = time.Now()
	sp = tr.begin("engine.stream_accum"+suffix, root, op)
	t, ds, err := pt.BuildCaptureStream(ctx, bytes.NewReader(b), pt.WithSampleSink(acc.AddSample))
	tr.end(sp)
	folded := float64(time.Since(t0).Nanoseconds()) / 1e6
	if err != nil {
		return nil, pt.DecodeStats{}, 0, 0, fmt.Errorf("replay: folded stream build: %w", err)
	}
	if acc.Records() != t.NumRecords() {
		return nil, pt.DecodeStats{}, 0, 0, fmt.Errorf("replay: stream fold counted %d records, trace has %d", acc.Records(), t.NumRecords())
	}
	return t, ds, plain, folded, nil
}
