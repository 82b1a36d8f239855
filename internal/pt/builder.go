package pt

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"

	"github.com/memgaze/memgaze-go/internal/instrument"
	"github.com/memgaze/memgaze-go/internal/trace"
)

// FaultPolicy selects how a Builder treats corrupted packet spans.
type FaultPolicy int

const (
	// FaultResync skips to the next PSB after a corrupted span and
	// accounts the loss in DecodeStats — the default, and what hardware
	// PT decoders do across buffer wraps and perf DROP records.
	FaultResync FaultPolicy = iota
	// FaultFail aborts the build with a *CorruptionError on the first
	// corrupted span. Use it where silent loss must be fatal.
	FaultFail
)

// CorruptionError is returned by Build under FaultFail when a sample's
// packet stream needed at least one resync.
type CorruptionError struct {
	Seq       int // sequence number of the corrupted sample
	Resyncs   int // corruption points found in it
	LostBytes int // payload bytes its resyncs cost
}

func (e *CorruptionError) Error() string {
	return fmt.Sprintf("pt: corrupt sample %d: %d resync(s), %d payload bytes lost",
		e.Seq, e.Resyncs, e.LostBytes)
}

// BuildOptions is the resolved configuration of a Builder. The zero
// value is the default: GOMAXPROCS workers, resync on faults, no sink.
type BuildOptions struct {
	// Workers bounds the samples decoded concurrently (<= 0 selects
	// GOMAXPROCS). Sample order in the built trace is deterministic
	// regardless of the worker count.
	Workers int
	// Policy selects fault handling (default FaultResync).
	Policy FaultPolicy
	// StatsSink, when non-nil, receives the final DecodeStats of a
	// successful build — in addition to Build returning them.
	StatsSink func(DecodeStats)
	// Progress, when non-nil, is called after each decoded sample with
	// the number done and the total. Calls are serialised.
	Progress func(done, total int)
	// ChunkBytes is the read granularity of the streamed build path
	// (BuildCaptureStream): raw bytes are consumed in chunks of this
	// size and samples at least streamInlineChunks chunks long decode
	// incrementally without ever being buffered whole (<= 0 selects
	// DefaultStreamChunk). Ignored by Build, which already holds the
	// collector's buffers.
	ChunkBytes int
	// SampleSink, when non-nil, receives every decoded sample window —
	// nil when the window decoded to no records — keyed by its position
	// in the capture. Windows are emitted as soon as they decode: calls
	// may arrive on any worker goroutine, concurrently and out of
	// order.
	SampleSink func(idx int, s *trace.Sample)
}

// BuildOption configures a Builder; pass them to NewBuilder.
type BuildOption func(*BuildOptions)

// WithWorkers bounds the number of samples decoded concurrently.
func WithWorkers(n int) BuildOption {
	return func(o *BuildOptions) { o.Workers = n }
}

// WithFaultPolicy selects how corrupted packet spans are handled.
func WithFaultPolicy(p FaultPolicy) BuildOption {
	return func(o *BuildOptions) { o.Policy = p }
}

// WithStatsSink registers a callback for the final DecodeStats.
func WithStatsSink(fn func(DecodeStats)) BuildOption {
	return func(o *BuildOptions) { o.StatsSink = fn }
}

// WithProgress registers a per-sample progress callback.
func WithProgress(fn func(done, total int)) BuildOption {
	return func(o *BuildOptions) { o.Progress = fn }
}

// WithChunkBytes sets the streamed build's read granularity.
func WithChunkBytes(n int) BuildOption {
	return func(o *BuildOptions) { o.ChunkBytes = n }
}

// WithSampleSink registers a per-window sink for incremental consumers.
func WithSampleSink(fn func(idx int, s *trace.Sample)) BuildOption {
	return func(o *BuildOptions) { o.SampleSink = fn }
}

// Builder converts a collector's raw output into a load-level trace —
// the paper's "Analysis/1" step (Table II) — decoding samples in
// parallel on a bounded worker pool with deterministic reassembly.
// Create one with NewBuilder and execute it with Build; a Builder is
// read-only over the collector, so the same collector can be rebuilt
// under different options.
type Builder struct {
	col  *Collector
	ann  *instrument.Annotations
	opts BuildOptions
}

// NewBuilder creates a trace builder over a collector and the module's
// annotations, mirroring memgaze.NewAnalyzer's functional-option style.
func NewBuilder(col *Collector, ann *instrument.Annotations, opts ...BuildOption) *Builder {
	if col == nil || ann == nil {
		panic("pt: NewBuilder needs a collector and annotations")
	}
	b := &Builder{col: col, ann: ann}
	for _, opt := range opts {
		opt(&b.opts)
	}
	return b
}

// Build decodes everything the collector recorded into a trace. For
// sampled collectors each raw snapshot decodes independently on the
// worker pool; full-mode collectors already hold decoded events and
// take a single-pass path. The returned DecodeStats account every raw
// byte (decoded, framing, or lost). Build returns ctx's error on
// cancellation and a *CorruptionError under FaultFail.
func (b *Builder) Build(ctx context.Context) (*trace.Trace, DecodeStats, error) {
	if b.col.cfg.Mode == ModeFull {
		return b.buildFull(ctx)
	}
	return b.buildSampled(ctx)
}

func (b *Builder) buildSampled(ctx context.Context) (*trace.Trace, DecodeStats, error) {
	cp, err := b.col.Capture(b.ann)
	if err != nil {
		return nil, DecodeStats{}, err
	}
	i := 0
	// The collector owns these buffers: they are never marked pooled, so
	// the core's free list cannot hand them to another sample.
	next := func([]byte) (window, error) {
		if i == len(cp.Samples) {
			return window{}, io.EOF
		}
		i++
		return window{RawSample: cp.Samples[i-1]}, nil
	}
	return build(ctx, cp, len(cp.Samples), next, b.opts)
}

// window is one capture sample on its way through the build core: raw
// bytes for a worker to decode or, when the source already decoded the
// sample inline, the decoded events and their byte accounting.
type window struct {
	RawSample
	pooled  bool // the build owns Raw, so it may join the free list
	decoded bool // events and st are final; Raw is unused
	events  []Event
	st      SpanStats
}

// sampleSource yields a capture's samples in order and io.EOF after the
// last. buf is a spare raw buffer from the core's free list (nil when
// none is free) that the source may fill instead of allocating. A source
// marks a window pooled only when Raw is buf or a buffer it allocated,
// never memory a caller still owns.
type sampleSource func(buf []byte) (window, error)

// build is the one sampled-trace build core behind Builder.Build and
// BuildCaptureStream. It dispatches next's samples to a bounded worker
// pool, applies the fault policy, feeds the sample sink and progress
// callback, and reassembles the samples in capture order, so the trace
// is identical for any worker count and any sample source. cp supplies
// the trace header, counters, and annotations; its Samples are not
// read. total is the sample count the capture promises: Progress
// reports it, and it caps the worker count and the slot preallocation.
//
// At most workers+2 raw buffers are in flight, and buffers the source
// marks pooled are recycled across samples. ctx cancellation is honoured
// between samples; the first worker error (a *CorruptionError under
// FaultFail) cancels the rest, and a source error aborts the build and is
// returned as-is.
func build(ctx context.Context, cp *Capture, total int, next sampleSource, o BuildOptions) (*trace.Trace, DecodeStats, error) {
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, max(total, 1))
	type slot struct {
		sample *trace.Sample
		ds     DecodeStats
	}
	var (
		mu       sync.Mutex
		slots    = make([]slot, 0, min(total, 4096)) // total is untrusted on the wire
		firstErr error
		done     int
	)
	// ctx2 also stops the producer when a worker fails.
	ctx2, cancel := context.WithCancel(ctx)
	defer cancel()

	// finish turns one decoded window into its slot.
	finish := func(idx int, w *window) error {
		s, ds, err := sampleFromWindow(w.Seq, w.TriggerLoads, w.events, w.st, cp.Ann, o.Policy)
		if err != nil {
			return err
		}
		if o.SampleSink != nil {
			o.SampleSink(idx, s)
		}
		mu.Lock()
		for len(slots) <= idx {
			slots = append(slots, slot{})
		}
		slots[idx] = slot{sample: s, ds: ds}
		done++
		if o.Progress != nil {
			o.Progress(done, total)
		}
		mu.Unlock()
		return nil
	}

	type item struct {
		idx int
		w   window
	}
	in := make(chan item)
	// Pooled raw buffers cycle through a free list once a worker is done
	// with them: a long ingest allocates O(workers) sample buffers, not
	// one per sample. The list holds every buffer that can be in flight:
	// one per worker, one being read, and one waiting on dispatch.
	free := make(chan []byte, workers+2)
	recycle := func(raw []byte) {
		select {
		case free <- raw:
		default:
		}
	}
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range in {
				if ctx2.Err() != nil {
					continue // drain; the producer is shutting down
				}
				it.w.events, it.w.st = DecodeWindow(it.w.Raw)
				if it.w.pooled {
					recycle(it.w.Raw)
				}
				if err := finish(it.idx, &it.w); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
						cancel()
					}
					mu.Unlock()
				}
			}
		}()
	}

	var prodErr error
producer:
	for idx := 0; ; idx++ {
		if prodErr = ctx2.Err(); prodErr != nil {
			break
		}
		var buf []byte
		select {
		case buf = <-free:
		default:
		}
		w, err := next(buf)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			prodErr = err
			break
		}
		if buf != nil && !w.pooled {
			recycle(buf) // the source did not need it
		}
		if w.decoded {
			if prodErr = finish(idx, &w); prodErr != nil {
				break
			}
			continue
		}
		select {
		case in <- item{idx: idx, w: w}:
		case <-ctx2.Done():
			prodErr = ctx2.Err()
			break producer
		}
	}
	close(in)
	wg.Wait()

	switch {
	case firstErr != nil:
		return nil, DecodeStats{}, firstErr
	case ctx.Err() != nil:
		return nil, DecodeStats{}, ctx.Err()
	case prodErr != nil:
		return nil, DecodeStats{}, prodErr
	}

	// Reassemble in capture order: identical output for any worker count.
	t := &trace.Trace{
		Module:         cp.Ann.Module,
		Mode:           cp.Mode.String(),
		Period:         cp.Period,
		BufBytes:       cp.BufBytes,
		TotalLoads:     cp.TotalLoads,
		Bytes:          cp.BytesRecorded,
		RecordedEvents: cp.EventsRec,
	}
	var ds DecodeStats
	nrec := 0
	for i := range slots {
		if slots[i].sample != nil {
			nrec += len(slots[i].sample.Records)
		}
	}
	t.Reserve(len(slots), nrec)
	for i := range slots {
		ds.Add(slots[i].ds)
		if slots[i].sample != nil {
			// Emit straight into the trace's columns, in sample order.
			t.AppendSample(slots[i].sample)
		}
	}
	t.LostBytes = uint64(ds.SkippedBytes)
	ds.Records = t.NumRecords()
	if o.StatsSink != nil {
		o.StatsSink(ds)
	}
	return t, ds, nil
}

// sampleFromWindow converts one decoded window into its trace sample
// (nil when no records survive) and per-sample stats, applying the
// fault policy.
func sampleFromWindow(seq int, trig uint64, events []Event, st SpanStats, ann *instrument.Annotations, policy FaultPolicy) (*trace.Sample, DecodeStats, error) {
	ds := DecodeStats{
		Events:       len(events),
		SkippedBytes: st.LostBytes,
		PacketBytes:  st.PacketBytes,
		SyncBytes:    st.SyncBytes,
		Resyncs:      st.Resyncs,
	}
	if st.Resyncs > 0 {
		ds.CorruptSamples = 1
		if policy == FaultFail {
			return nil, ds, &CorruptionError{Seq: seq, Resyncs: st.Resyncs, LostBytes: st.LostBytes}
		}
	}
	recs := eventsToRecords(events, ann, &ds)
	if len(recs) == 0 {
		return nil, ds, nil
	}
	return &trace.Sample{Seq: seq, TriggerLoads: trig, Records: recs}, ds, nil
}

func (b *Builder) buildFull(ctx context.Context) (*trace.Trace, DecodeStats, error) {
	if err := ctx.Err(); err != nil {
		return nil, DecodeStats{}, err
	}
	var ds DecodeStats
	events := b.col.FullEvents()
	ds.Events = len(events)
	recs := eventsToRecords(events, b.ann, &ds)
	t := &trace.Trace{
		Module:         b.ann.Module,
		Mode:           ModeFull.String(),
		TotalLoads:     b.col.Loads(),
		Bytes:          b.col.BytesRecorded(),
		DroppedEvents:  b.col.Dropped(),
		RecordedEvents: b.col.EventsRecorded(),
	}
	if len(recs) > 0 {
		t.Reserve(1, len(recs))
		t.AppendSample(&trace.Sample{Seq: 0, TriggerLoads: b.col.Loads(), Records: recs})
	}
	ds.Records = len(recs)
	if b.opts.Progress != nil {
		b.opts.Progress(1, 1)
	}
	if b.opts.StatsSink != nil {
		b.opts.StatsSink(ds)
	}
	return t, ds, nil
}
