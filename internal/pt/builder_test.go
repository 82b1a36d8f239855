package pt

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/memgaze/memgaze-go/internal/trace"
)

// driveSampled runs a deterministic single-reg workload (ptw 0x200 from
// handNotes) against a fresh sampled collector and returns it.
func driveSampled(period uint64, bufBytes, nLoads int) *Collector {
	col := NewCollector(Config{Mode: ModeContinuous, Period: period, BufBytes: bufBytes, Seed: 7})
	ts := uint64(0)
	for i := 0; i < nLoads; i++ {
		ts += 3
		col.PTWrite(0x200, uint64(0x5000+i*8), ts)
		col.OnLoad(ts)
	}
	return col
}

// dumpTrace renders a trace deep enough that two dumps are equal iff the
// traces are record-for-record identical.
func dumpTrace(tr *trace.Trace) string {
	var b strings.Builder
	fmt.Fprintf(&b, "module=%s mode=%s period=%d buf=%d loads=%d bytes=%d rec=%d dropped=%d\n",
		tr.Module, tr.Mode, tr.Period, tr.BufBytes, tr.TotalLoads, tr.Bytes,
		tr.RecordedEvents, tr.DroppedEvents)
	for _, s := range tr.AllSamples() {
		fmt.Fprintf(&b, "sample %d @%d\n", s.Seq, s.TriggerLoads)
		for _, r := range s.Records {
			fmt.Fprintf(&b, "  %+v\n", r)
		}
	}
	return b.String()
}

// TestBuilderWorkerCountInvariance pins the reassembly step: the built
// trace and its stats are identical at every worker count.
func TestBuilderWorkerCountInvariance(t *testing.T) {
	notes := handNotes()
	col := driveSampled(100, 4<<10, 5000)
	wantTr, wantDS, err := NewBuilder(col, notes, WithWorkers(1)).Build(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if wantTr.NumSamples() < 5 {
		t.Fatalf("samples = %d, want enough to exercise the pool", wantTr.NumSamples())
	}
	for _, workers := range []int{0, 3, 8, 64} {
		tr, ds, err := NewBuilder(col, notes, WithWorkers(workers)).Build(context.Background())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got, want := dumpTrace(tr), dumpTrace(wantTr); got != want {
			t.Errorf("workers=%d: trace diverges from the sequential build\n got: %.200s\nwant: %.200s",
				workers, got, want)
		}
		if ds != wantDS {
			t.Errorf("workers=%d: stats %+v, sequential build has %+v", workers, ds, wantDS)
		}
	}
}

func TestBuilderNilArgumentsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewBuilder(nil, nil) did not panic")
		}
	}()
	NewBuilder(nil, nil)
}

func TestBuilderContextCancellation(t *testing.T) {
	col := driveSampled(100, 4<<10, 5000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tr, _, err := NewBuilder(col, handNotes()).Build(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if tr != nil {
		t.Error("cancelled build returned a trace")
	}
}

func TestBuilderFaultPolicies(t *testing.T) {
	col := driveSampled(100, 4<<10, 5000)
	notes := handNotes()
	samples := col.Samples()
	k := len(samples) / 2
	orig := samples[k].Raw
	defer func() { col.Samples()[k].Raw = orig }()

	// Overwrite the byte after the sample's first PSB with an invalid
	// header: the decoder enters the stream there, so it must resync,
	// whatever the surrounding payload. (The snapshot can start mid-
	// stream after a buffer wrap, so the PSB is found, not assumed.)
	p := findPSB(orig, 0)
	if p < 0 {
		t.Fatalf("sample %d has no PSB", k)
	}
	corrupt := append([]byte(nil), orig...)
	corrupt[p+psbLen] = 0xff
	col.Samples()[k].Raw = corrupt

	// Default resync policy: the build succeeds and accounts the damage.
	tr, ds, err := NewBuilder(col, notes).Build(context.Background())
	if err != nil {
		t.Fatalf("resync policy failed: %v", err)
	}
	if tr == nil || ds.CorruptSamples != 1 || ds.Resyncs == 0 || ds.SkippedBytes == 0 {
		t.Fatalf("resync stats %+v, want one corrupt sample with accounted loss", ds)
	}

	// FaultFail: the same corruption aborts with a typed error.
	_, _, err = NewBuilder(col, notes, WithFaultPolicy(FaultFail)).Build(context.Background())
	var ce *CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CorruptionError", err)
	}
	if ce.Seq != samples[k].Seq || ce.Resyncs == 0 {
		t.Errorf("corruption error %+v, want sample %d", ce, samples[k].Seq)
	}
	if !strings.Contains(ce.Error(), "resync") {
		t.Errorf("error text %q", ce.Error())
	}
}

func TestBuilderStatsSinkAndProgress(t *testing.T) {
	col := driveSampled(100, 4<<10, 5000)
	var sunk DecodeStats
	var calls []int
	total := -1
	tr, ds, err := NewBuilder(col, handNotes(),
		WithWorkers(1),
		WithStatsSink(func(d DecodeStats) { sunk = d }),
		WithProgress(func(done, n int) { calls = append(calls, done); total = n }),
	).Build(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sunk != ds {
		t.Errorf("sink got %+v, Build returned %+v", sunk, ds)
	}
	if total != len(col.Samples()) || len(calls) != total {
		t.Fatalf("progress: %d calls, total %d, want %d", len(calls), total, len(col.Samples()))
	}
	for i, d := range calls {
		if d != i+1 {
			t.Fatalf("progress calls not monotonic: %v", calls)
		}
	}
	if ds.Records != tr.NumRecords() {
		t.Errorf("stats records %d != trace records %d", ds.Records, tr.NumRecords())
	}
}

// BenchmarkBuild compares the sequential and pooled builds of the same
// ≥64-sample trace; run with -cpu=4 to see the worker-pool speedup.
func BenchmarkBuild(b *testing.B) {
	col := driveSampled(2000, 16<<10, 256_000)
	notes := handNotes()
	if n := len(col.Samples()); n < 64 {
		b.Fatalf("samples = %d, want >= 64", n)
	}
	for _, bc := range []struct {
		name    string
		workers int
	}{{"sequential", 1}, {"parallel", 0}} {
		workers := bc.workers
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := NewBuilder(col, notes, WithWorkers(workers)).Build(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
