package engine

import (
	"sync/atomic"

	"github.com/memgaze/memgaze-go/internal/trace"
)

// StreamAccum counts the records of decoded sample windows as they
// arrive — concurrently and in any order, the contract of
// pt.BuildOptions.SampleSink, so a method value of AddSample plugs into
// pt.WithSampleSink directly.
//
// It exists only for the benchmark: the per-layer replay in perfbench
// times a streamed build with this sink attached (engine.stream_accum_*).
// The daemon no longer runs it — a streamed upload's records, κ and ρ
// come from the built trace like every other upload's — and it goes in
// the next change to the benchmark.
type StreamAccum struct {
	records atomic.Int64
}

// NewStreamAccum returns an empty counter. The block size is ignored;
// the parameter keeps the benchmark's call compiling.
func NewStreamAccum(uint64) *StreamAccum { return &StreamAccum{} }

// AddSample counts one decoded window's records; s is nil for windows
// that decoded to no records. Safe to call concurrently and out of
// order.
func (sa *StreamAccum) AddSample(_ int, s *trace.Sample) {
	if s != nil {
		sa.records.Add(int64(len(s.Records)))
	}
}

// Records returns the records counted so far: after a build, the
// trace's NumRecords.
func (sa *StreamAccum) Records() int { return int(sa.records.Load()) }
