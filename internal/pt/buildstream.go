package pt

import (
	"context"
	"io"

	"github.com/memgaze/memgaze-go/internal/trace"
)

// streamInlineChunks is the size threshold, in chunks, above which the
// streamed build decodes a sample incrementally off the wire instead of
// buffering its raw bytes for the worker pool. Dispatched samples are
// therefore < streamInlineChunks × ChunkBytes each, which is what bounds
// the pipeline's peak raw-byte footprint.
const streamInlineChunks = 4

// BuildCaptureStream reads a serialised capture (Capture.Write) from r
// and builds its trace with decode pipelined against the read: samples
// are dispatched to the worker pool as they arrive off the wire, and
// samples of at least streamInlineChunks chunks decode incrementally
// through a StreamDecoder without ever being buffered whole. It runs the
// same build core as Builder.Build, so the result — trace, stats, and
// error behaviour — is identical to ReadCapture followed by
// Capture.NewBuilder(...).Build, but peak raw memory is
// O(ChunkBytes × Workers) instead of O(capture): the capture body is
// never resident, each dispatched sample is bounded by the inline
// threshold, and at most Workers+2 samples are in flight.
//
// ctx cancellation is honoured between chunks and samples; a read
// error from r (a dropped connection, a quota breach injected by the
// caller's reader) aborts the build and is returned as-is, so callers
// can map transport errors to their own failure modes.
func BuildCaptureStream(ctx context.Context, r io.Reader, opts ...BuildOption) (*trace.Trace, DecodeStats, error) {
	var o BuildOptions
	for _, opt := range opts {
		opt(&o)
	}
	chunk := o.ChunkBytes
	if chunk <= 0 {
		chunk = DefaultStreamChunk
	}
	cr, err := NewCaptureReader(r)
	if err != nil {
		return nil, DecodeStats{}, err
	}
	inlineMin := chunk * streamInlineChunks
	next := func(buf []byte) (window, error) {
		h, err := cr.NextHeader()
		if err != nil {
			return window{}, err
		}
		w := window{RawSample: RawSample{Seq: h.Seq, TriggerLoads: h.TriggerLoads}}
		if h.RawLen >= inlineMin {
			// Too big to buffer: decode incrementally off the wire.
			w.events, w.st, err = DecodeStream(cr.RawReader(), chunk)
			w.decoded = true
			return w, err
		}
		w.Raw, err = cr.ReadRawInto(buf)
		w.pooled = true
		return w, err
	}
	return build(ctx, cr.Head(), cr.Samples(), next, o)
}
