package pt

import (
	"context"
	"testing"

	"github.com/memgaze/memgaze-go/internal/dataflow"
	"github.com/memgaze/memgaze-go/internal/instrument"
)

// handNotes builds an annotation file by hand: one marker (constant
// proxy), one single-register load, one two-register gather.
func handNotes() *instrument.Annotations {
	n := &instrument.Annotations{
		Module:   "hand",
		Loads:    map[uint64]*instrument.LoadNote{},
		PTWrites: map[uint64]*instrument.PTWNote{},
		AddrMap:  map[uint64]uint64{},
	}
	// Marker proxy at ptw 0x100 -> load 0x105.
	n.PTWrites[0x100] = &instrument.PTWNote{PTWAddr: 0x100, LoadAddr: 0x105,
		Operand: instrument.OpndMarker, NumOperands: 1}
	n.Loads[0x105] = &instrument.LoadNote{LoadAddr: 0x105, Proc: "f", Line: 1,
		Class: dataflow.Constant, ImpliedConst: 2, Instrumented: true}
	// Single-reg load: ptw 0x200 -> load 0x205, disp 16.
	n.PTWrites[0x200] = &instrument.PTWNote{PTWAddr: 0x200, LoadAddr: 0x205,
		Operand: instrument.OpndBase, NumOperands: 1}
	n.Loads[0x205] = &instrument.LoadNote{LoadAddr: 0x205, Proc: "f", Line: 2,
		Class: dataflow.Strided, Stride: 8, Disp: 16, Instrumented: true}
	// Two-reg gather: ptws 0x300 (base), 0x305 (index), scale 8.
	n.PTWrites[0x300] = &instrument.PTWNote{PTWAddr: 0x300, LoadAddr: 0x30a,
		Operand: instrument.OpndBase, NumOperands: 2}
	n.PTWrites[0x305] = &instrument.PTWNote{PTWAddr: 0x305, LoadAddr: 0x30a,
		Operand: instrument.OpndIndex, NumOperands: 2}
	n.Loads[0x30a] = &instrument.LoadNote{LoadAddr: 0x30a, Proc: "g", Line: 3,
		Class: dataflow.Irregular, Scale: 8, Instrumented: true}
	return n
}

func TestDecoderReconstruction(t *testing.T) {
	notes := handNotes()
	col := NewCollector(Config{Mode: ModeFull, CopyBytesPerCycle: 1e9})
	ts := uint64(0)
	emit := func(ip, val uint64) {
		ts += 5
		col.PTWrite(ip, val, ts)
		col.OnLoad(ts)
	}
	emit(0x100, 0xdead) // marker: payload ignored
	emit(0x200, 0x5000) // base: addr = 0x5000+16
	emit(0x300, 0x9000) // gather base
	emit(0x305, 7)      // gather index: addr = 0x9000+7*8
	tr, ds, err := NewBuilder(col, notes).Build(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ds.OrphanEvents != 0 || ds.PartialPairs != 0 {
		t.Fatalf("decode stats %+v", ds)
	}
	recs := tr.AllRecords()
	if len(recs) != 3 {
		t.Fatalf("records = %d, want 3", len(recs))
	}
	if recs[0].Addr != ConstPoolAddr || recs[0].Implied != 2 || recs[0].Class != dataflow.Constant {
		t.Errorf("marker record = %+v", recs[0])
	}
	if recs[1].Addr != 0x5010 || recs[1].Stride != 8 {
		t.Errorf("single-reg record = %+v", recs[1])
	}
	if recs[2].Addr != 0x9000+7*8 || recs[2].Proc != "g" {
		t.Errorf("two-reg record = %+v", recs[2])
	}
}

func TestDecoderPartialPairAndOrphans(t *testing.T) {
	notes := handNotes()
	col := NewCollector(Config{Mode: ModeFull, CopyBytesPerCycle: 1e9})
	// A base payload whose index partner never arrives (next event is a
	// different load), then an event with no annotation at all.
	col.PTWrite(0x300, 0x9000, 1)
	col.PTWrite(0x200, 0x5000, 2)
	col.PTWrite(0xfff, 1, 3) // unknown ptwrite IP
	tr, ds, err := NewBuilder(col, notes).Build(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ds.PartialPairs != 1 {
		t.Errorf("partial pairs = %d, want 1", ds.PartialPairs)
	}
	if ds.OrphanEvents != 1 {
		t.Errorf("orphans = %d, want 1", ds.OrphanEvents)
	}
	if tr.NumRecords() != 1 {
		t.Errorf("records = %d, want just the single-reg load", tr.NumRecords())
	}
}

func TestSampledTraceBuildFromHandNotes(t *testing.T) {
	notes := handNotes()
	col := NewCollector(Config{Mode: ModeContinuous, Period: 100, BufBytes: 4 << 10})
	ts := uint64(0)
	for i := 0; i < 1000; i++ {
		ts += 3
		col.PTWrite(0x200, uint64(0x5000+i*8), ts)
		col.OnLoad(ts)
	}
	tr, ds, err := NewBuilder(col, notes).Build(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumSamples() < 5 {
		t.Fatalf("samples = %d", tr.NumSamples())
	}
	if ds.OrphanEvents > 0 {
		t.Errorf("orphans = %d", ds.OrphanEvents)
	}
	if tr.TotalLoads != 1000 {
		t.Errorf("loads = %d", tr.TotalLoads)
	}
	for _, s := range tr.AllSamples() {
		for _, r := range s.Records {
			if r.IP != 0x205 || (r.Addr-0x5010)%8 != 0 {
				t.Fatalf("bad record %+v", r)
			}
		}
	}
}
