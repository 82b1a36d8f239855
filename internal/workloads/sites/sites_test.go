package sites

import (
	"context"
	"testing"

	"github.com/memgaze/memgaze-go/internal/dataflow"
	"github.com/memgaze/memgaze-go/internal/pt"
	"github.com/memgaze/memgaze-go/internal/vm"
)

func TestProvenanceClassification(t *testing.T) {
	cases := map[Provenance]dataflow.Class{
		FrameScalar:     dataflow.Constant,
		GlobalScalar:    dataflow.Constant,
		InductionStride: dataflow.Strided,
		LoopInvariant:   dataflow.Strided,
		Gather:          dataflow.Irregular,
		PointerChase:    dataflow.Irregular,
	}
	for prov, want := range cases {
		if got := prov.Classify(); got != want {
			t.Errorf("%v classified %v, want %v", prov, got, want)
		}
	}
}

func TestFreezeAccounting(t *testing.T) {
	m := NewModule("mod")
	p := m.Proc("f")
	g := m.LoadGroup(p, 1, InductionStride, 8, 5, 1)
	gi := m.LoadIdxGroup(p, 2, 8, 1, 2)
	notes := m.Freeze(true)

	// 5 strided clones + 1 gather + 3 bulk consts declared.
	if notes.NumLoads != 5+1+1+2 {
		t.Errorf("NumLoads = %d, want 9", notes.NumLoads)
	}
	// All dynamic sites instrumented; consts elided.
	if notes.NumInstrumented != 6 {
		t.Errorf("NumInstrumented = %d", notes.NumInstrumented)
	}
	if notes.NumConstElided != 3 {
		t.Errorf("NumConstElided = %d", notes.NumConstElided)
	}
	// Gather site carries two ptwrites; strided clones one each.
	if notes.NumPTWrites != 5+2 {
		t.Errorf("NumPTWrites = %d", notes.NumPTWrites)
	}
	// Implied constants attach to the first clone of each group.
	if g.First().implied != 1 || gi.First().implied != 2 {
		t.Errorf("implied = %d, %d", g.First().implied, gi.First().implied)
	}
	// Every ptwrite note resolves to a load note.
	for _, pn := range notes.PTWrites {
		if notes.Loads[pn.LoadAddr] == nil {
			t.Errorf("ptwrite %#x points at unknown load %#x", pn.PTWAddr, pn.LoadAddr)
		}
		if pn.LoadAddr <= pn.PTWAddr {
			t.Errorf("ptwrite %#x does not precede load %#x", pn.PTWAddr, pn.LoadAddr)
		}
	}
	if m.Size() <= 0 {
		t.Error("module size not positive")
	}
}

func TestGroupRotation(t *testing.T) {
	m := NewModule("mod")
	p := m.Proc("f")
	g := m.LoadGroup(p, 1, InductionStride, 8, 3, 1)
	m.Freeze(true)
	seen := map[int]int{}
	for i := 0; i < 9; i++ {
		seen[g.Next().ID]++
	}
	if len(seen) != 3 {
		t.Fatalf("rotation covered %d clones, want 3", len(seen))
	}
	for id, n := range seen {
		if n != 3 {
			t.Errorf("clone %d fired %d times, want 3", id, n)
		}
	}
}

func TestRunnerKappaThroughPipeline(t *testing.T) {
	// Unroll 5 with one implied const per body: collected κ must be 1.2.
	m := NewModule("mod")
	p := m.Proc("f")
	g := m.LoadGroup(p, 1, InductionStride, 8, 5, 1)
	notes := m.Freeze(true)

	col := pt.NewCollector(pt.Config{Mode: pt.ModeContinuous, Period: 200, BufBytes: 8 << 10})
	r := NewRunner(vm.DefaultCosts(), col, true)
	for i := 0; i < 5000; i++ {
		r.Load(g.Next(), 0x20000000+uint64(i)*8)
	}
	tr, ds, err := pt.NewBuilder(col, notes).Build(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ds.OrphanEvents > 0 {
		t.Errorf("orphans: %d", ds.OrphanEvents)
	}
	if k := tr.Kappa(); k < 1.15 || k > 1.25 {
		t.Errorf("kappa = %.3f, want 1.2", k)
	}
	// Loads counter includes the implied constants: 5000 dyn + 1000 const.
	if r.Stats().Loads != 6000 {
		t.Errorf("loads = %d, want 6000", r.Stats().Loads)
	}
	// ρ from the trace is consistent with the counter.
	if tr.TotalLoads != 6000 {
		t.Errorf("trace TotalLoads = %d", tr.TotalLoads)
	}
}

func TestUncompressedMaterialisesConstMarkers(t *testing.T) {
	build := func(compress bool) (uint64, float64, int) {
		m := NewModule("mod")
		p := m.Proc("f")
		g := m.LoadGroup(p, 1, InductionStride, 8, 1, 1) // κ=2 compressed
		notes := m.Freeze(compress)
		col := pt.NewCollector(pt.Config{Mode: pt.ModeFull, CopyBytesPerCycle: 1e9})
		r := NewRunner(vm.DefaultCosts(), col, true)
		for i := 0; i < 2000; i++ {
			r.Load(g.Next(), 0x20000000+uint64(i)*8)
		}
		tr, _, err := pt.NewBuilder(col, notes).Build(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return tr.Bytes, tr.Kappa(), tr.NumRecords()
	}
	bytesOn, kOn, recsOn := build(true)
	bytesOff, kOff, recsOff := build(false)
	if kOn < 1.9 || kOn > 2.1 {
		t.Errorf("compressed kappa = %.2f, want 2", kOn)
	}
	if kOff != 1 {
		t.Errorf("uncompressed kappa = %.2f, want 1 (consts are records)", kOff)
	}
	if recsOff != 2*recsOn {
		t.Errorf("uncompressed records = %d, want %d", recsOff, 2*recsOn)
	}
	if bytesOff <= bytesOn {
		t.Errorf("uncompressed trace (%d B) not larger than compressed (%d B)", bytesOff, bytesOn)
	}
	// Both runs executed the same number of loads.
}

func TestRunnerBaselineVsInstrumented(t *testing.T) {
	m := NewModule("mod")
	p := m.Proc("f")
	g := m.LoadGroup(p, 1, Gather, 0, 1, 0)
	m.Freeze(true)

	base := NewRunner(vm.DefaultCosts(), nil, false)
	for i := 0; i < 100; i++ {
		base.Load(g.Next(), uint64(i)*64)
	}
	col := pt.NewCollector(pt.Config{Mode: pt.ModeContinuous, Period: 50, BufBytes: 4 << 10})
	traced := NewRunner(vm.DefaultCosts(), col, true)
	for i := 0; i < 100; i++ {
		traced.Load(g.Next(), uint64(i)*64)
	}
	if base.Stats().PTWrites != 0 || base.Stats().PTWMasked != 0 {
		t.Error("baseline executed ptwrites")
	}
	if traced.Stats().PTWrites == 0 {
		t.Error("traced run recorded no ptwrites")
	}
	if traced.Stats().Cycles <= base.Stats().Cycles {
		t.Error("tracing was free")
	}
}

func TestPhasesAndProcRange(t *testing.T) {
	m := NewModule("mod")
	p1 := m.Proc("one")
	g1 := m.LoadGroup(p1, 1, Gather, 0, 1, 0)
	p2 := m.Proc("two")
	g2 := m.LoadGroup(p2, 2, Gather, 0, 1, 0)
	m.Freeze(true)

	lo1, hi1, err := m.ProcRange("one")
	if err != nil {
		t.Fatal(err)
	}
	lo2, hi2, err := m.ProcRange("two")
	if err != nil {
		t.Fatal(err)
	}
	if hi1 > lo2 {
		t.Errorf("proc ranges overlap: [%#x,%#x) and [%#x,%#x)", lo1, hi1, lo2, hi2)
	}
	if g1.First().Addr < lo1 || g1.First().Addr >= hi1 {
		t.Error("site outside its proc range")
	}
	if g2.First().Addr < lo2 || g2.First().Addr >= hi2 {
		t.Error("site outside its proc range")
	}
	if _, _, err := m.ProcRange("ghost"); err == nil {
		t.Error("expected error for unknown proc")
	}

	r := NewRunner(vm.DefaultCosts(), nil, false)
	r.Phase("a")
	r.Load(g1.Next(), 1)
	r.Phase("b")
	r.Load(g2.Next(), 2)
	marks := r.Phases()
	if len(marks) != 2 || marks[0].Name != "a" || marks[1].Name != "b" {
		t.Errorf("phases = %+v", marks)
	}
	if marks[1].Stats.Loads != 1 {
		t.Errorf("phase b snapshot loads = %d, want 1", marks[1].Stats.Loads)
	}
}
