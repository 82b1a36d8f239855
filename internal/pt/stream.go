package pt

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// DefaultStreamChunk is the read granularity of the streaming decode
// path when no chunk size is configured: large enough to amortise read
// syscalls, small enough that per-worker buffering stays far below any
// realistic capture size.
const DefaultStreamChunk = 256 << 10

// maxCarry bounds the bytes a StreamDecoder holds back across chunk
// boundaries: the longest undecidable tail is a packet header plus a
// varint that needs MaxVarintLen64+1 bytes before overflow is certain
// (12 bytes); a partial PSB pattern is at most psbLen-1. Documented for
// the memory-bound argument in DESIGN.md; the decoder never buffers
// more than one chunk plus this.
const maxCarry = 1 + binary.MaxVarintLen64 + 1

// StreamDecoder decodes a raw PT packet stream incrementally from an
// io.Reader in fixed-size chunks, carrying partial-packet state across
// chunk boundaries. It is the package's only packet parser: DecodeWindow
// runs the same state machine over a whole buffer as one final chunk.
// Fed the same bytes, it produces exactly the events and SpanStats of
// DecodeWindow for every chunk size — pinned by
// TestStreamDecodeEquivalence and FuzzStreamDecode — while peak memory
// stays O(chunk) instead of O(stream).
//
// The carry-over state machine has two modes. In scanning mode (not
// synchronised) the decoder looks for a PSB; bytes that cannot begin
// one are classified eagerly (pad → framing, else → lost) and only a
// trailing prefix of the PSB pattern (≤ 7 bytes) is held back, since
// the next chunk may complete it. In synced mode the decoder consumes
// whole packets; a header whose varint payload is still incomplete at
// the chunk boundary is held back (≤ 12 bytes — one header plus the
// longest undecidable varint), because only end-of-stream turns an
// incomplete packet into a truncated-tail loss. Decoder payload state
// (IP/value/timestamp deltas, the FUP-pending flag) persists across
// chunks and resets at each PSB.
type StreamDecoder struct {
	r         io.Reader
	chunkSize int

	buf    []byte  // carried tail + bytes of the current chunk
	events []Event // decoded since the last Next call
	st     SpanStats

	synced      bool
	ip, val, ts uint64
	fupPending  bool

	fin bool  // the final (end-of-stream) flush ran
	err error // sticky read error
}

// NewStreamDecoder creates a decoder reading r in chunks of chunkBytes
// (<= 0 selects DefaultStreamChunk).
func NewStreamDecoder(r io.Reader, chunkBytes int) *StreamDecoder {
	if chunkBytes <= 0 {
		chunkBytes = DefaultStreamChunk
	}
	return &StreamDecoder{r: r, chunkSize: chunkBytes}
}

// Next returns the next batch of decoded events — everything one or
// more chunk reads produced — or io.EOF once the stream is exhausted
// and flushed. A non-EOF read error is returned after any already
// decoded events have been drained.
func (d *StreamDecoder) Next() ([]Event, error) {
	for {
		if len(d.events) > 0 {
			evs := d.events
			d.events = nil
			return evs, nil
		}
		if d.err != nil {
			return nil, d.err
		}
		if d.fin {
			return nil, io.EOF
		}
		start := len(d.buf)
		if cap(d.buf) < start+d.chunkSize {
			nb := make([]byte, start, start+d.chunkSize+maxCarry)
			copy(nb, d.buf)
			d.buf = nb
		}
		n, err := d.r.Read(d.buf[start : start+d.chunkSize])
		d.buf = d.buf[:start+n]
		if n > 0 {
			d.process(false)
		}
		switch {
		case errors.Is(err, io.EOF):
			d.process(true)
			d.fin = true
		case err != nil:
			d.err = err
		}
	}
}

// Stats returns the byte accounting so far. After Next has returned
// io.EOF it is total: PacketBytes + SyncBytes + LostBytes equals the
// stream length, identical to DecodeWindow over the whole stream.
func (d *StreamDecoder) Stats() SpanStats { return d.st }

// process consumes every decidable byte of d.buf, appending decoded
// events and accounting consumed bytes; the undecidable tail (at most
// maxCarry bytes unless final) is carried for the next chunk. final
// applies end-of-window semantics: a trailing PSB prefix is framing, an
// incomplete packet is a truncated-tail loss. A final call consumes every
// byte and so never writes to d.buf, which lets DecodeWindow hand it the
// caller's window without a copy.
func (d *StreamDecoder) process(final bool) {
	b := d.buf
	i := 0
loop:
	for i < len(b) {
		if !d.synced {
			j := findPSB(b, i)
			if j < 0 {
				if final {
					d.st.accountGap(b[i:], true)
					i = len(b)
				} else {
					// Hold back a tail that may grow into a PSB.
					end := len(b) - psbPrefixLen(b[i:])
					d.st.accountGap(b[i:end], false)
					i = end
				}
				break loop
			}
			d.st.accountGap(b[i:j], false)
			i = j + psbLen
			d.st.SyncBytes += psbLen
			d.ip, d.val, d.ts, d.fupPending = 0, 0, 0, false
			d.synced = true
			continue
		}
		switch c := b[i]; c {
		case hdrPad:
			d.st.SyncBytes++
			i++
		case hdrPSB0:
			switch {
			case isPSB(b, i):
				// In-stream PSB: framing plus a decoder state reset.
				d.st.SyncBytes += psbLen
				i += psbLen
				d.ip, d.val, d.ts, d.fupPending = 0, 0, 0, false
			case isPSBPrefix(b[i:]):
				if final {
					// The stream ends inside the next sync pattern.
					d.st.SyncBytes += len(b) - i
					i = len(b)
				}
				break loop // not final: the next chunk decides
			default:
				// A lone 0x02 is not a valid header here: corruption.
				d.st.LostBytes++
				d.st.Resyncs++
				i++
				d.synced = false
			}
		case hdrFUP, hdrPTW, hdrTSC:
			if c == hdrPTW && !d.fupPending {
				// A PTW with no preceding FUP is corruption, not an event.
				d.st.LostBytes++
				d.st.Resyncs++
				i++
				d.synced = false
				continue
			}
			v, n := uvarint(b[i+1:])
			if n == 0 {
				if final {
					// The stream ends mid-packet: a truncated tail.
					d.st.LostBytes += len(b) - i
					i = len(b)
				}
				break loop // not final: wait for the rest of the varint
			}
			if n < 0 {
				// Varint overflow: corrupt payload.
				d.st.LostBytes++
				d.st.Resyncs++
				i++
				d.synced = false
				continue
			}
			d.st.PacketBytes += 1 + n
			i += 1 + n
			switch c {
			case hdrFUP:
				d.ip += uint64(unzig(v))
				d.fupPending = true
			case hdrTSC:
				d.ts += v
			default:
				d.val += uint64(unzig(v))
				d.fupPending = false
				d.events = append(d.events, Event{IP: d.ip, Val: d.val, TS: d.ts})
			}
		default:
			// Corrupt byte (e.g. mid-packet overwrite point): resync.
			d.st.LostBytes++
			d.st.Resyncs++
			i++
			d.synced = false
		}
	}
	n := copy(d.buf, b[i:])
	d.buf = d.buf[:n]
}

// DecodeStream drains a StreamDecoder over r: the chunked-read
// equivalent of DecodeWindow over the whole stream, without ever
// buffering more than one chunk.
func DecodeStream(r io.Reader, chunkBytes int) ([]Event, SpanStats, error) {
	d := NewStreamDecoder(r, chunkBytes)
	var events []Event
	for {
		evs, err := d.Next()
		if errors.Is(err, io.EOF) {
			return events, d.Stats(), nil
		}
		if err != nil {
			return events, d.Stats(), err
		}
		events = append(events, evs...)
	}
}

// SampleHeader is the framing of one raw sample inside a serialised
// capture: everything but the payload bytes.
type SampleHeader struct {
	Seq          int
	TriggerLoads uint64
	RawLen       int
}

// CaptureReader reads a serialised capture (Capture.Write) section by
// section: the header up front, then each raw sample on demand, so a
// consumer can pipeline sample decoding against the read without
// holding the whole capture in memory. ReadCapture and the streamed
// trace build are both built on it.
type CaptureReader struct {
	br      *bufio.Reader
	head    *Capture // config, counters, annotations; no samples
	total   uint64   // samples the header promises
	next    uint64   // samples handed out so far
	pending int      // unread payload bytes of the last NextHeader
}

// NewCaptureReader validates the capture magic, version, and JSON
// header from r and positions the reader at the first sample.
func NewCaptureReader(r io.Reader) (*CaptureReader, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, err
	}
	if string(magic[:]) != "MGPT" {
		return nil, fmt.Errorf("pt: bad capture magic %q", magic)
	}
	ver, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if ver != captureVersion {
		return nil, fmt.Errorf("pt: unsupported capture version %d", ver)
	}
	hlen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if hlen > maxCaptureSection {
		return nil, fmt.Errorf("pt: capture header of %d bytes exceeds limit", hlen)
	}
	hdr := make([]byte, hlen)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, err
	}
	cp := &Capture{}
	if err := json.Unmarshal(hdr, cp); err != nil {
		return nil, fmt.Errorf("pt: capture header: %w", err)
	}
	if cp.Mode == ModeFull {
		return nil, ErrFullModeCapture
	}
	if cp.Ann == nil {
		return nil, errors.New("pt: capture has no annotations")
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	return &CaptureReader{br: br, head: cp, total: n}, nil
}

// Head returns the capture's configuration, counters, and annotations.
// Its Samples slice is always nil; samples come from Next.
func (cr *CaptureReader) Head() *Capture { return cr.head }

// Samples returns the number of samples the capture header promises.
func (cr *CaptureReader) Samples() int { return int(cr.total) }

// NextHeader advances to the next sample and returns its framing. Any
// unread payload of the previous sample is skipped first. It returns
// io.EOF after the last sample.
func (cr *CaptureReader) NextHeader() (SampleHeader, error) {
	if cr.pending > 0 {
		if _, err := cr.br.Discard(cr.pending); err != nil {
			return SampleHeader{}, err
		}
		cr.pending = 0
	}
	if cr.next >= cr.total {
		return SampleHeader{}, io.EOF
	}
	cr.next++
	// A clean io.EOF here is a lie — the header promised more samples —
	// so it surfaces as ErrUnexpectedEOF, never as end-of-capture.
	readU := func() (uint64, error) {
		v, err := binary.ReadUvarint(cr.br)
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return v, err
	}
	seq, err := readU()
	if err != nil {
		return SampleHeader{}, err
	}
	trg, err := readU()
	if err != nil {
		return SampleHeader{}, err
	}
	rlen, err := readU()
	if err != nil {
		return SampleHeader{}, err
	}
	if rlen > maxCaptureSection {
		return SampleHeader{}, fmt.Errorf("pt: capture sample of %d bytes exceeds limit", rlen)
	}
	cr.pending = int(rlen)
	return SampleHeader{Seq: int(seq), TriggerLoads: trg, RawLen: int(rlen)}, nil
}

// RawReader returns a reader over the current sample's remaining
// payload bytes. Reading past the payload returns io.EOF; NextHeader
// skips whatever is left unread.
func (cr *CaptureReader) RawReader() io.Reader { return (*captureRawReader)(cr) }

type captureRawReader CaptureReader

func (rr *captureRawReader) Read(p []byte) (int, error) {
	if rr.pending <= 0 {
		return 0, io.EOF
	}
	if len(p) > rr.pending {
		p = p[:rr.pending]
	}
	n, err := rr.br.Read(p)
	rr.pending -= n
	if err == nil && n == 0 && len(p) > 0 {
		return 0, io.ErrNoProgress
	}
	if errors.Is(err, io.EOF) && rr.pending > 0 {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

// ReadRaw reads the current sample's payload fully.
func (cr *CaptureReader) ReadRaw() ([]byte, error) { return cr.ReadRawInto(nil) }

// ReadRawInto reads the current sample's payload fully, reusing buf's
// storage when it is large enough and allocating otherwise. Callers
// recycling buffers across samples (the streamed build's free list)
// avoid one O(sample) allocation per sample, which keeps the garbage
// produced by a long ingest independent of the capture size.
func (cr *CaptureReader) ReadRawInto(buf []byte) ([]byte, error) {
	var raw []byte
	if cap(buf) >= cr.pending {
		raw = buf[:cr.pending]
	} else {
		raw = make([]byte, cr.pending)
	}
	if _, err := io.ReadFull(cr.br, raw); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	cr.pending = 0
	return raw, nil
}

// Next returns the next raw sample with its payload fully read — the
// buffered convenience over NextHeader/ReadRaw.
func (cr *CaptureReader) Next() (RawSample, error) {
	h, err := cr.NextHeader()
	if err != nil {
		return RawSample{}, err
	}
	raw, err := cr.ReadRaw()
	if err != nil {
		return RawSample{}, err
	}
	return RawSample{Seq: h.Seq, TriggerLoads: h.TriggerLoads, Raw: raw}, nil
}
