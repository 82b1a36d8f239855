package pt

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"
)

// eventsDigest is a stable fingerprint of a decoded event sequence:
// SHA-256 over each event's IP, Val and TS as little-endian uint64s.
func eventsDigest(events []Event) string {
	h := sha256.New()
	var b [24]byte
	for _, ev := range events {
		binary.LittleEndian.PutUint64(b[0:], ev.IP)
		binary.LittleEndian.PutUint64(b[8:], ev.Val)
		binary.LittleEndian.PutUint64(b[16:], ev.TS)
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// goldenInputs names every streamCorpus entry, every FuzzDecode seed,
// and a wrapped ring snapshot that starts mid-packet.
func goldenInputs() (names []string, inputs [][]byte) {
	for i, data := range streamCorpus() {
		names = append(names, fmt.Sprintf("corpus-%d", i))
		inputs = append(inputs, data)
	}
	clean, _ := cleanStream(160)
	seeds := [][]byte{
		{},
		{0x13, 0x37, 0xde, 0xad, 0xbe, 0xef},
		append([]byte(nil), clean[:40]...),
		bytes.Repeat([]byte{hdrPSB0, hdrPSB1}, 6),
		{hdrFUP, 0x80, 0x80},
		{hdrPSB0, hdrPSB1, hdrPSB0, hdrPSB1, hdrPSB0, hdrPSB1, hdrPSB0, hdrPSB1, hdrPTW, 0x30},
		Inject(clean, FaultBitFlip, 3),
		Inject(clean, FaultDropPSB, 5),
	}
	for i, data := range seeds {
		names = append(names, fmt.Sprintf("fuzz-seed-%d", i))
		inputs = append(inputs, data)
	}
	long, _ := cleanStream(600)
	ring := NewRing(1501)
	ring.Write(long)
	names = append(names, "ring-wrap")
	inputs = append(inputs, ring.Snapshot(1501))
	return names, inputs
}

// decodeGolden is DecodeWindow's output on goldenInputs as recorded
// from the original stand-alone window decoder, before DecodeWindow
// became a final-chunk call into the stream decoder. It pins the one
// remaining state machine to that decoder's output, not only to itself
// at other chunk sizes.
var decodeGolden = map[string]struct {
	events int
	digest string
	st     SpanStats
}{
	"corpus-0":    {0, "e3b0c44298fc1c14", SpanStats{PacketBytes: 0, SyncBytes: 0, LostBytes: 0, Resyncs: 0}},
	"corpus-1":    {0, "e3b0c44298fc1c14", SpanStats{PacketBytes: 0, SyncBytes: 0, LostBytes: 6, Resyncs: 0}},
	"corpus-2":    {6, "76bfc2c05bade535", SpanStats{PacketBytes: 31, SyncBytes: 8, LostBytes: 1, Resyncs: 0}},
	"corpus-3":    {0, "e3b0c44298fc1c14", SpanStats{PacketBytes: 0, SyncBytes: 12, LostBytes: 0, Resyncs: 0}},
	"corpus-4":    {0, "e3b0c44298fc1c14", SpanStats{PacketBytes: 0, SyncBytes: 0, LostBytes: 3, Resyncs: 0}},
	"corpus-5":    {0, "e3b0c44298fc1c14", SpanStats{PacketBytes: 0, SyncBytes: 8, LostBytes: 2, Resyncs: 1}},
	"corpus-6":    {160, "f1abf0f2d47835c1", SpanStats{PacketBytes: 691, SyncBytes: 24, LostBytes: 0, Resyncs: 0}},
	"corpus-7":    {160, "f1abf0f2d47835c1", SpanStats{PacketBytes: 691, SyncBytes: 56, LostBytes: 0, Resyncs: 0}},
	"corpus-8":    {160, "f1abf0f2d47835c1", SpanStats{PacketBytes: 691, SyncBytes: 27, LostBytes: 0, Resyncs: 0}},
	"corpus-9":    {0, "e3b0c44298fc1c14", SpanStats{PacketBytes: 0, SyncBytes: 9, LostBytes: 11, Resyncs: 1}},
	"corpus-10":   {142, "02601624cab4a042", SpanStats{PacketBytes: 617, SyncBytes: 41, LostBytes: 57, Resyncs: 1}},
	"corpus-11":   {160, "0dd6fd5f189f743c", SpanStats{PacketBytes: 691, SyncBytes: 24, LostBytes: 0, Resyncs: 0}},
	"corpus-12":   {160, "43ad7c8c142aedba", SpanStats{PacketBytes: 691, SyncBytes: 24, LostBytes: 0, Resyncs: 0}},
	"corpus-13":   {96, "231d5a59235a4950", SpanStats{PacketBytes: 418, SyncBytes: 87, LostBytes: 210, Resyncs: 1}},
	"corpus-14":   {131, "703df53c41b29326", SpanStats{PacketBytes: 571, SyncBytes: 52, LostBytes: 92, Resyncs: 1}},
	"corpus-15":   {160, "f888def3c4744d8d", SpanStats{PacketBytes: 691, SyncBytes: 24, LostBytes: 0, Resyncs: 0}},
	"corpus-16":   {160, "1f45bea531bb4c05", SpanStats{PacketBytes: 691, SyncBytes: 24, LostBytes: 0, Resyncs: 0}},
	"corpus-17":   {160, "a92c66e77d249bc8", SpanStats{PacketBytes: 691, SyncBytes: 24, LostBytes: 0, Resyncs: 0}},
	"corpus-18":   {91, "c9e181c4ccc88ff4", SpanStats{PacketBytes: 397, SyncBytes: 16, LostBytes: 1, Resyncs: 0}},
	"corpus-19":   {41, "a946ea76918873de", SpanStats{PacketBytes: 181, SyncBytes: 8, LostBytes: 1, Resyncs: 0}},
	"corpus-20":   {88, "16bfd5043a744c85", SpanStats{PacketBytes: 383, SyncBytes: 16, LostBytes: 1, Resyncs: 0}},
	"corpus-21":   {54, "92b4989b62de7123", SpanStats{PacketBytes: 235, SyncBytes: 8, LostBytes: 0, Resyncs: 0}},
	"corpus-22":   {112, "463baa1fa29321a4", SpanStats{PacketBytes: 485, SyncBytes: 16, LostBytes: 0, Resyncs: 0}},
	"corpus-23":   {148, "07ab3fdf2428bbef", SpanStats{PacketBytes: 641, SyncBytes: 24, LostBytes: 1, Resyncs: 0}},
	"corpus-24":   {130, "83eec9d88b741a80", SpanStats{PacketBytes: 565, SyncBytes: 24, LostBytes: 1, Resyncs: 0}},
	"corpus-25":   {9, "58bce1c27b98e361", SpanStats{PacketBytes: 43, SyncBytes: 8, LostBytes: 1, Resyncs: 0}},
	"corpus-26":   {47, "5d28d78cd1a60c07", SpanStats{PacketBytes: 203, SyncBytes: 8, LostBytes: 0, Resyncs: 0}},
	"corpus-27":   {101, "bb08ccc058a67341", SpanStats{PacketBytes: 439, SyncBytes: 16, LostBytes: 0, Resyncs: 0}},
	"corpus-28":   {150, "f842684132850468", SpanStats{PacketBytes: 649, SyncBytes: 24, LostBytes: 0, Resyncs: 0}},
	"corpus-29":   {64, "45da2ee3b9c61518", SpanStats{PacketBytes: 278, SyncBytes: 16, LostBytes: 2, Resyncs: 0}},
	"corpus-30":   {100, "24a6abe5d62ffcae", SpanStats{PacketBytes: 433, SyncBytes: 16, LostBytes: 0, Resyncs: 0}},
	"corpus-31":   {11, "a8134766e9664326", SpanStats{PacketBytes: 51, SyncBytes: 8, LostBytes: 0, Resyncs: 0}},
	"corpus-32":   {44, "cf0ad5c98ebad0d8", SpanStats{PacketBytes: 193, SyncBytes: 8, LostBytes: 0, Resyncs: 0}},
	"corpus-33":   {158, "f08cef8c8bc80b4c", SpanStats{PacketBytes: 683, SyncBytes: 24, LostBytes: 0, Resyncs: 0}},
	"corpus-34":   {160, "9ab208d7cbd7d51a", SpanStats{PacketBytes: 691, SyncBytes: 16, LostBytes: 0, Resyncs: 0}},
	"corpus-35":   {160, "8d8096fc4107d523", SpanStats{PacketBytes: 691, SyncBytes: 16, LostBytes: 0, Resyncs: 0}},
	"corpus-36":   {160, "f1abf0f2d47835c1", SpanStats{PacketBytes: 691, SyncBytes: 24, LostBytes: 0, Resyncs: 0}},
	"corpus-37":   {160, "8d8096fc4107d523", SpanStats{PacketBytes: 691, SyncBytes: 16, LostBytes: 0, Resyncs: 0}},
	"corpus-38":   {160, "8d8096fc4107d523", SpanStats{PacketBytes: 691, SyncBytes: 16, LostBytes: 0, Resyncs: 0}},
	"corpus-39":   {160, "9ab208d7cbd7d51a", SpanStats{PacketBytes: 691, SyncBytes: 16, LostBytes: 0, Resyncs: 0}},
	"corpus-40":   {160, "9ab208d7cbd7d51a", SpanStats{PacketBytes: 691, SyncBytes: 16, LostBytes: 0, Resyncs: 0}},
	"corpus-41":   {160, "f1abf0f2d47835c1", SpanStats{PacketBytes: 691, SyncBytes: 24, LostBytes: 0, Resyncs: 0}},
	"fuzz-seed-0": {0, "e3b0c44298fc1c14", SpanStats{PacketBytes: 0, SyncBytes: 0, LostBytes: 0, Resyncs: 0}},
	"fuzz-seed-1": {0, "e3b0c44298fc1c14", SpanStats{PacketBytes: 0, SyncBytes: 0, LostBytes: 6, Resyncs: 0}},
	"fuzz-seed-2": {6, "76bfc2c05bade535", SpanStats{PacketBytes: 31, SyncBytes: 8, LostBytes: 1, Resyncs: 0}},
	"fuzz-seed-3": {0, "e3b0c44298fc1c14", SpanStats{PacketBytes: 0, SyncBytes: 12, LostBytes: 0, Resyncs: 0}},
	"fuzz-seed-4": {0, "e3b0c44298fc1c14", SpanStats{PacketBytes: 0, SyncBytes: 0, LostBytes: 3, Resyncs: 0}},
	"fuzz-seed-5": {0, "e3b0c44298fc1c14", SpanStats{PacketBytes: 0, SyncBytes: 8, LostBytes: 2, Resyncs: 1}},
	"fuzz-seed-6": {96, "231d5a59235a4950", SpanStats{PacketBytes: 418, SyncBytes: 87, LostBytes: 210, Resyncs: 1}},
	"fuzz-seed-7": {160, "9ab208d7cbd7d51a", SpanStats{PacketBytes: 691, SyncBytes: 16, LostBytes: 0, Resyncs: 0}},
	"ring-wrap":   {280, "28196a1518cdea9d", SpanStats{PacketBytes: 1210, SyncBytes: 99, LostBytes: 192, Resyncs: 0}},
}

func TestDecodeWindowGolden(t *testing.T) {
	names, inputs := goldenInputs()
	if len(names) != len(decodeGolden) {
		t.Fatalf("%d inputs, %d golden entries", len(names), len(decodeGolden))
	}
	for i, name := range names {
		want, ok := decodeGolden[name]
		if !ok {
			t.Fatalf("%s: no golden entry", name)
		}
		events, st := DecodeWindow(inputs[i])
		if len(events) != want.events || eventsDigest(events) != want.digest || st != want.st {
			t.Errorf("%s: %d events (digest %s), %+v; want %d events (digest %s), %+v",
				name, len(events), eventsDigest(events), st, want.events, want.digest, want.st)
		}
	}
}
