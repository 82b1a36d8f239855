package trace

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/memgaze/memgaze-go/internal/dataflow"
)

func synthetic(seed int64, samples, recsPer int) *Trace {
	rng := rand.New(rand.NewSource(seed))
	t := &Trace{
		Module: "synth", Mode: "sampled",
		Period: 10_000, BufBytes: 8 << 10,
		TotalLoads: uint64(samples) * 10_000,
	}
	procs := []string{"alpha", "beta", "gamma"}
	var ts uint64
	for s := 0; s < samples; s++ {
		smp := &Sample{Seq: s, TriggerLoads: uint64(s+1) * 10_000}
		for i := 0; i < recsPer; i++ {
			ts += uint64(rng.Intn(50))
			smp.Records = append(smp.Records, Record{
				IP:      0x401000 + uint64(rng.Intn(256))*6,
				Addr:    0x20000000 + uint64(rng.Intn(1<<16))*8,
				TS:      ts,
				Class:   dataflow.Class(rng.Intn(3)),
				Implied: uint32(rng.Intn(3)),
				Stride:  int32(rng.Intn(64) - 16),
				Line:    int32(rng.Intn(500)),
				Proc:    procs[rng.Intn(len(procs))],
			})
		}
		t.AppendSample(smp)
	}
	t.Bytes = uint64(t.NumRecords()) * 10
	t.RecordedEvents = uint64(t.NumRecords())
	t.LostBytes = uint64(rng.Intn(1 << 12))
	return t
}

func TestWriteReadRoundtrip(t *testing.T) {
	f := func(seed int64) bool {
		tr := synthetic(seed, 1+int(uint8(seed))%5, 50)
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(tr, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestReadVersion1Compat pins backward compatibility: a version-1
// header (no LostBytes field) still reads, with LostBytes zero.
func TestReadVersion1Compat(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("MGTR")
	writeU := func(v uint64) {
		var b [10]byte
		n := binary.PutUvarint(b[:], v)
		buf.Write(b[:n])
	}
	writeStr := func(s string) { writeU(uint64(len(s))); buf.WriteString(s) }
	writeU(1) // version 1
	writeStr("old")
	writeStr("sampled")
	writeU(5000)    // period
	writeU(8 << 10) // buf bytes
	writeU(100_000) // total loads
	writeU(4096)    // bytes
	writeU(0)       // dropped
	writeU(42)      // recorded
	writeU(0)       // string table size
	writeU(0)       // samples
	tr, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Module != "old" || tr.RecordedEvents != 42 || tr.LostBytes != 0 {
		t.Errorf("v1 trace = %+v", tr)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("NOTATRACE"))); err == nil {
		t.Error("expected magic error")
	}
	var buf bytes.Buffer
	tr := synthetic(1, 2, 10)
	tr.Write(&buf)
	// Truncate mid-stream.
	if _, err := Read(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Error("expected truncation error")
	}
}

// TestReadHostileHeader pins the untrusted-input hardening: a tiny body
// whose header varints claim enormous string lengths or element counts
// must fail with a decode error, not force a giant up-front allocation
// (the served POST /v1/traces path feeds attacker-controlled bytes here).
func TestReadHostileHeader(t *testing.T) {
	writeU := func(buf *bytes.Buffer, v uint64) {
		var b [10]byte
		n := binary.PutUvarint(b[:], v)
		buf.Write(b[:n])
	}
	writeStr := func(buf *bytes.Buffer, s string) { writeU(buf, uint64(len(s))); buf.WriteString(s) }
	// header writes "MGTR", version 2, module+mode, and the seven
	// fixed header varints, leaving the cursor at the string-table count.
	header := func() *bytes.Buffer {
		var buf bytes.Buffer
		buf.WriteString("MGTR")
		writeU(&buf, 2)
		writeStr(&buf, "mod")
		writeStr(&buf, "sampled")
		for i := 0; i < 7; i++ {
			writeU(&buf, 0)
		}
		return &buf
	}

	cases := map[string]*bytes.Buffer{}

	// Module length claims 2^40 bytes.
	huge := bytes.NewBufferString("MGTR")
	writeU(huge, 2)
	writeU(huge, 1<<40) // module string length
	cases["huge string length"] = huge

	// String table claims 2^35 entries, then the body ends.
	nstr := header()
	writeU(nstr, 1<<35)
	cases["huge string count"] = nstr

	// One sample claiming 2^35 records, then the body ends.
	nrec := header()
	writeU(nrec, 0) // string table size
	writeU(nrec, 1) // one sample
	writeU(nrec, 0) // seq
	writeU(nrec, 0) // cpu
	writeU(nrec, 0) // trigger loads
	writeU(nrec, 1<<35)
	cases["huge record count"] = nrec

	for name, buf := range cases {
		if len(buf.Bytes()) > 64 {
			t.Fatalf("%s: hostile body is %d bytes, want tiny", name, buf.Len())
		}
		if _, err := Read(bytes.NewReader(buf.Bytes())); err == nil {
			t.Errorf("%s: hostile body accepted", name)
		}
	}
}

func TestKappaAndRho(t *testing.T) {
	tr := &Trace{Period: 1000, TotalLoads: 100_000}
	smp := &Sample{}
	for i := 0; i < 100; i++ {
		// Every other record implies one constant: κ = 1.5.
		smp.Records = append(smp.Records, Record{Addr: uint64(i), Implied: uint32(i % 2)})
	}
	tr.SetSamples(smp)
	if k := tr.Kappa(); k != 1.5 {
		t.Errorf("kappa = %v, want 1.5", k)
	}
	// ρ = 100000 / (1.5 * 100)
	if r := tr.Rho(); r != 100_000.0/150.0 {
		t.Errorf("rho = %v", r)
	}
	// No hardware load counter: executed loads fall back to |σ|·period.
	tr.TotalLoads = 0
	tr.SetSamples(smp, smp)
	if r := tr.Rho(); r != 2*1000.0/300.0 {
		t.Errorf("fallback rho = %v, want %v", r, 2*1000.0/300.0)
	}
	// Empty trace: identities.
	empty := &Trace{}
	if empty.Kappa() != 1 || empty.Rho() != 1 {
		t.Error("empty trace identities broken")
	}
	// Full trace: rho clamps to 1.
	full := &Trace{TotalLoads: 100}
	full.SetSamples(&Sample{Records: make([]Record, 100)})
	if full.Rho() != 1 {
		t.Errorf("full-trace rho = %v, want 1", full.Rho())
	}
}

func TestFilterProc(t *testing.T) {
	tr := synthetic(7, 4, 30)
	ft := tr.FilterProc("alpha")
	if ft.NumRecords() == 0 {
		t.Fatal("filter removed everything")
	}
	for _, s := range ft.AllSamples() {
		for _, r := range s.Records {
			if r.Proc != "alpha" {
				t.Fatalf("leaked proc %q", r.Proc)
			}
		}
	}
	// Conservation: alpha + beta + gamma = all.
	total := 0
	for _, p := range []string{"alpha", "beta", "gamma"} {
		total += tr.FilterProc(p).NumRecords()
	}
	if total != tr.NumRecords() {
		t.Errorf("partition lost records: %d != %d", total, tr.NumRecords())
	}
}

func TestMeanW(t *testing.T) {
	tr := synthetic(3, 4, 25)
	if w := tr.MeanW(); w != 25 {
		t.Errorf("meanW = %v, want 25", w)
	}
}

func TestMergeInterleavesPerCPUTraces(t *testing.T) {
	a := synthetic(1, 3, 10)
	b := synthetic(2, 2, 10)
	m := Merge([]*Trace{a, b})
	if m.NumRecords() != a.NumRecords()+b.NumRecords() {
		t.Errorf("merged records %d, want %d", m.NumRecords(), a.NumRecords()+b.NumRecords())
	}
	if m.TotalLoads != a.TotalLoads+b.TotalLoads {
		t.Errorf("merged loads %d", m.TotalLoads)
	}
	cpus := map[int]int{}
	for i, s := range m.AllSamples() {
		cpus[s.CPU]++
		if s.Seq != i {
			t.Errorf("sample %d has seq %d", i, s.Seq)
		}
		if i > 0 && s.TriggerLoads < m.SampleAt(i-1).TriggerLoads {
			t.Error("merged samples not ordered by trigger progress")
		}
	}
	if cpus[0] != 3 || cpus[1] != 2 {
		t.Errorf("cpu sample counts = %v", cpus)
	}
	// Merge must not mutate the inputs.
	if a.SampleAt(0).CPU != 0 || a.SampleAt(0).Seq != 0 {
		t.Error("merge mutated input trace")
	}
	// Degenerate merges.
	if e := Merge(nil); e.NumRecords() != 0 {
		t.Error("empty merge not empty")
	}
}

func TestMergeRoundtripsThroughFile(t *testing.T) {
	m := Merge([]*Trace{synthetic(3, 2, 5), synthetic(4, 2, 5)})
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Error("merged trace changed across serialization (CPU field lost?)")
	}
}
