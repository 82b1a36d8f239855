// Package pt simulates the Processor Tracing hardware path MemGaze rides
// on: ptwrite packets are encoded into a byte stream, buffered in a
// fixed-size circular hardware buffer, and read out by sampling triggers
// or a bandwidth-limited full-trace collector (extended Linux perf).
//
// The packet stream is modelled on Intel PT: a PSB synchronisation
// pattern every psbInterval events, then per event a FUP packet (the
// instruction pointer of the ptwrite), a PTW packet (the register
// payload), and a TSC packet (timestamp). Payloads are delta/varint
// compressed against decoder state, which PSB resets — so a decoder can
// only start at a PSB, and bytes overwritten in the circular buffer cost
// whole decode spans, exactly like real PT.
package pt

import (
	"encoding/binary"
	"fmt"
)

// Packet headers (1 byte each, loosely after Intel PT encodings).
const (
	hdrPad  = 0x00
	hdrFUP  = 0x71
	hdrPTW  = 0x12
	hdrTSC  = 0x19
	hdrPSB0 = 0x02
	hdrPSB1 = 0x82
)

// psbLen is the length of the PSB synchronisation pattern: an 8-byte
// alternation of 0x02 0x82, long enough that false matches inside varint
// payloads are negligible.
const psbLen = 8

// psbInterval is how many events the encoder emits between PSBs.
const psbInterval = 64

// tscInterval is how many events pass between TSC packets; real PT
// emits timestamps sparsely, and per-sample resolution is all the
// analyses need.
const tscInterval = 8

// Event is one ptwrite execution as seen by the trace hardware.
type Event struct {
	IP  uint64 // address of the ptwrite instruction
	Val uint64 // register payload
	TS  uint64 // core cycle timestamp
}

// Encoder turns events into the packet byte stream.
type Encoder struct {
	lastIP, lastVal, lastTS uint64
	sinceSync               int
	started                 bool
}

// Encode appends the packet bytes for ev to dst and returns the extended
// slice. A PSB is emitted first when due; a TSC packet precedes every
// tscInterval-th event (and the first event after a PSB).
func (e *Encoder) Encode(dst []byte, ev Event) []byte {
	if !e.started || e.sinceSync >= psbInterval {
		dst = appendPSB(dst)
		e.lastIP, e.lastVal, e.lastTS = 0, 0, 0
		e.sinceSync = 0
		e.started = true
	}
	if e.sinceSync%tscInterval == 0 {
		dst = append(dst, hdrTSC)
		dst = binary.AppendUvarint(dst, ev.TS-e.lastTS)
		e.lastTS = ev.TS
	}
	e.sinceSync++
	dst = append(dst, hdrFUP)
	dst = appendZig(dst, int64(ev.IP-e.lastIP))
	dst = append(dst, hdrPTW)
	dst = appendZig(dst, int64(ev.Val-e.lastVal))
	e.lastIP, e.lastVal = ev.IP, ev.Val
	return dst
}

// Reset clears encoder state so the next event is preceded by a PSB.
func (e *Encoder) Reset() { e.started = false; e.sinceSync = 0 }

func appendPSB(dst []byte) []byte {
	for i := 0; i < psbLen/2; i++ {
		dst = append(dst, hdrPSB0, hdrPSB1)
	}
	return dst
}

func appendZig(dst []byte, v int64) []byte {
	return binary.AppendUvarint(dst, uint64((v<<1)^(v>>63)))
}

// SpanStats accounts every byte of one decoded window. Each input byte
// lands in exactly one bucket, so PacketBytes + SyncBytes + LostBytes
// always equals the window length:
//
//   - PacketBytes: bytes consumed as decoded FUP/PTW/TSC packets.
//   - SyncBytes: stream framing — PSB patterns, pad bytes, and a sync
//     pattern the window was cut inside of. Never payload, never lost.
//   - LostBytes: payload spans the decoder had to give up — bytes
//     before the first PSB (buffer wrap), corrupt spans up to the next
//     PSB, and packets truncated by the window end.
//
// Resyncs counts the mid-window corruption events (bit flips, mid-varint
// cuts, overwrite points) that forced a rescan for the next PSB.
type SpanStats struct {
	PacketBytes int
	SyncBytes   int
	LostBytes   int
	Resyncs     int
}

// Decode scans a raw byte window for the first PSB and decodes events
// until the window ends, resynchronising at the next PSB whenever the
// stream is undecodable. It returns the decoded events and the number
// of payload bytes lost (bytes before the first PSB plus corrupt or
// truncated spans); stream framing — PSB patterns and pad bytes — is
// never counted. Use DecodeWindow for the full accounting.
func Decode(raw []byte) (events []Event, skipped int) {
	events, st := DecodeWindow(raw)
	return events, st.LostBytes
}

// DecodeWindow decodes one raw buffer window with full byte accounting.
// A decoder can only start at a PSB (payload deltas are meaningless
// without the state reset it carries), and a corrupt byte costs the
// span up to the next PSB — exactly like real PT. The window is the
// final and only chunk of a StreamDecoder, so the buffered and the
// streamed decode share one state machine.
func DecodeWindow(raw []byte) (events []Event, st SpanStats) {
	// A decoded event costs at least 4 stream bytes (FUP hdr+delta, PTW
	// hdr+delta), so len/4 preallocates within 2x of the final size and
	// keeps append from re-growing inside the worker pool.
	d := StreamDecoder{buf: raw, events: make([]Event, 0, len(raw)/4)}
	d.process(true)
	return d.events, d.st
}

// accountGap classifies the bytes of an undecodable span: pad bytes are
// framing, everything else is lost payload. In the window's final span
// (no further PSB), a trailing prefix of the sync pattern is the cut
// the snapshot made through the next PSB — framing too.
func (st *SpanStats) accountGap(seg []byte, final bool) {
	n := len(seg)
	if final {
		if p := psbPrefixLen(seg); p > 0 {
			st.SyncBytes += p
			n -= p
		}
	}
	for _, b := range seg[:n] {
		if b == hdrPad {
			st.SyncBytes++
		} else {
			st.LostBytes++
		}
	}
}

// psbPrefixLen returns the length of the longest proper suffix of seg
// that is a prefix of the PSB pattern (starting at hdrPSB0).
func psbPrefixLen(seg []byte) int {
	for l := min(len(seg), psbLen-1); l > 0; l-- {
		match := true
		for k := 0; k < l; k++ {
			want := byte(hdrPSB0)
			if k%2 == 1 {
				want = hdrPSB1
			}
			if seg[len(seg)-l+k] != want {
				match = false
				break
			}
		}
		if match {
			return l
		}
	}
	return 0
}

// isPSBPrefix reports whether seg is entirely a proper prefix of the
// PSB pattern — i.e. the window ends inside a sync pattern.
func isPSBPrefix(seg []byte) bool {
	return len(seg) < psbLen && len(seg) > 0 && psbPrefixLen(seg) == len(seg)
}

func findPSB(raw []byte, from int) int {
	for i := from; i+psbLen <= len(raw); i++ {
		if isPSB(raw, i) {
			return i
		}
	}
	return -1
}

func isPSB(raw []byte, i int) bool {
	if i+psbLen > len(raw) {
		return false
	}
	for k := 0; k < psbLen; k += 2 {
		if raw[i+k] != hdrPSB0 || raw[i+k+1] != hdrPSB1 {
			return false
		}
	}
	return true
}

func uvarint(b []byte) (uint64, int) { return binary.Uvarint(b) }

func unzig(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Ring is the fixed-size circular hardware trace buffer. Writing beyond
// capacity silently overwrites the oldest bytes, as PT's circular output
// region does.
type Ring struct {
	buf   []byte
	head  uint64 // total bytes ever written
	valid uint64 // min(head, len(buf))
}

// NewRing allocates a ring of the given byte capacity.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		panic(fmt.Sprintf("pt: invalid ring capacity %d", capacity))
	}
	return &Ring{buf: make([]byte, capacity)}
}

// Write appends bytes, overwriting the oldest data on wrap.
func (r *Ring) Write(p []byte) {
	for _, b := range p {
		r.buf[r.head%uint64(len(r.buf))] = b
		r.head++
	}
	r.valid = r.head
	if r.valid > uint64(len(r.buf)) {
		r.valid = uint64(len(r.buf))
	}
}

// Snapshot copies the newest n bytes (or all valid bytes if fewer) in
// chronological order.
func (r *Ring) Snapshot(n int) []byte {
	if uint64(n) > r.valid {
		n = int(r.valid)
	}
	out := make([]byte, n)
	start := r.head - uint64(n)
	for i := 0; i < n; i++ {
		out[i] = r.buf[(start+uint64(i))%uint64(len(r.buf))]
	}
	return out
}

// Len returns the number of valid bytes currently in the ring.
func (r *Ring) Len() int { return int(r.valid) }

// Reset discards all buffered bytes.
func (r *Ring) Reset() { r.head, r.valid = 0, 0 }

// EncodingStats quantifies packet-size options over a set of events —
// the §VI-B discussion ("It may be possible to further reduce overhead
// with 32-bit packets"): the actual delta-varint stream, a naive
// fixed-64-bit encoding, and a hypothetical scheme using 32-bit PTW
// payloads whenever the value's high 32 bits match the previous
// event's.
type EncodingStats struct {
	Events        int
	VarintBytes   int     // this codec
	Fixed64Bytes  int     // header + 8-byte payload + header + 8-byte IP
	Packed32Bytes int     // 32-bit payloads where the high halves repeat
	Fit32Frac     float64 // fraction of events whose payload fit 32 bits
}

// MeasureEncoding computes EncodingStats for events.
func MeasureEncoding(events []Event) EncodingStats {
	var st EncodingStats
	st.Events = len(events)
	var enc Encoder
	var buf []byte
	var lastVal uint64
	fit := 0
	for i, ev := range events {
		buf = enc.Encode(buf[:0], ev)
		st.VarintBytes += len(buf)
		// Fixed: FUP hdr+8 + PTW hdr+8, TSC every tscInterval (hdr+7),
		// PSB every psbInterval.
		st.Fixed64Bytes += 2 + 8 + 8
		if i%tscInterval == 0 {
			st.Fixed64Bytes += 8
		}
		if i%psbInterval == 0 {
			st.Fixed64Bytes += psbLen
			st.Packed32Bytes += psbLen
		}
		// Packed32: 4-byte payload when the high halves match.
		if i > 0 && ev.Val>>32 == lastVal>>32 {
			st.Packed32Bytes += 2 + 4 + 4 // hdrs + 32-bit payload + ip delta-ish
			fit++
		} else {
			st.Packed32Bytes += 2 + 8 + 4
		}
		lastVal = ev.Val
	}
	if st.Events > 0 {
		st.Fit32Frac = float64(fit) / float64(st.Events)
	}
	return st
}
