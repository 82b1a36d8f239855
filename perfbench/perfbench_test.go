package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"slices"
	"testing"

	"github.com/memgaze/memgaze-go/internal/pt"
)

// TestInputsDeterministic: the same seed gives a byte-identical input
// sequence, and another seed gives a different one.
func TestInputsDeterministic(t *testing.T) {
	a := &config{seed: 7}
	b := &config{seed: 7}
	c := &config{seed: 8}
	ia, err := a.generate(4)
	if err != nil {
		t.Fatal(err)
	}
	ib, _ := b.generate(4)
	ic, _ := c.generate(4)
	for i := range ia {
		if !bytes.Equal(ia[i], ib[i]) {
			t.Fatalf("seed 7 input %d differs between two generations", i)
		}
		if bytes.Equal(ia[i], ic[i]) {
			t.Fatalf("input %d is the same under seeds 7 and 8", i)
		}
	}
}

// TestInputsDistinct: distinct operation indices give distinct content
// hashes, so no upload deduplicates and no analyze hits the cache.
func TestInputsDistinct(t *testing.T) {
	seen := map[string]int{}
	for op := 0; op < 8; op++ {
		b, err := genCapture(1, op)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := pt.ReadCapture(bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		tr, ds, err := cp.NewBuilder().Build(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if ds.CorruptSamples != 0 {
			t.Fatalf("op %d: %d corrupt samples", op, ds.CorruptSamples)
		}
		if n := tr.NumRecords(); n < 45_000 || n > 65_000 {
			t.Fatalf("op %d: %d records, want about 55k", op, n)
		}
		id := tr.Hash()
		if prev, ok := seen[id]; ok {
			t.Fatalf("ops %d and %d share content hash %s", prev, op, id)
		}
		seen[id] = op
	}
}

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: percentile must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{100, 0.90, 90, true}, // ranks 91..100 lie beyond: ten
		{99, 0.90, 0, false},  // nine beyond
		{109, 0.90, 99, true}, // rank ceil(98.1) = 99; ten beyond
		{999, 0.99, 0, false}, // rank 990, nine beyond
		{1000, 0.99, 990, true},
		{0, 0.5, 0, false},
		{21, 0.5, 11, true},
	} {
		got, ok := percentile(seq(tc.n), tc.p)
		if ok != tc.ok || got != tc.want {
			t.Errorf("percentile(n=%d, p=%v) = %v, %v; want %v, %v", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestErrorRate(t *testing.T) {
	o := &outcome{}
	for i := 0; i < 8; i++ {
		var err error
		if i%4 == 0 {
			err = os.ErrNotExist
		}
		o.check(err)
	}
	if o.attempted != 8 || o.failed != 2 || o.firstErr != os.ErrNotExist {
		t.Fatalf("check counted %d attempted, %d failed, first %v", o.attempted, o.failed, o.firstErr)
	}
	if r := errorRate(o.failed, o.attempted); r != 0.25 {
		t.Errorf("errorRate = %v, want 0.25", r)
	}
	if r := errorRate(0, 0); r != 0 {
		t.Errorf("errorRate(0, 0) = %v, want 0", r)
	}
}

func TestCheckUpload(t *testing.T) {
	ok := response{status: http.StatusCreated, header: http.Header{"Location": {"/v1/traces/abc"}},
		body: []byte(`{"id":"abc","records":5}`)}
	if info, err := checkUpload(ok); err != nil || info.Records != 5 {
		t.Fatalf("fresh upload rejected: %v %+v", err, info)
	}
	for name, r := range map[string]response{
		"dedup":    {status: http.StatusOK, header: ok.header, body: []byte(`{"id":"abc","records":5,"existed":true}`)},
		"existed":  {status: http.StatusCreated, header: ok.header, body: []byte(`{"id":"abc","existed":false}`)},
		"location": {status: http.StatusCreated, header: http.Header{"Location": {"/v1/traces/xyz"}}, body: ok.body},
		"error":    {status: http.StatusBadRequest, body: []byte(`{"error":{"code":"invalid_capture"}}`)},
	} {
		if _, err := checkUpload(r); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestSelfTimes: a span's self time excludes its children, counting
// overlapping children once.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0}, // overlaps a by 10
		{Name: "c", Start: 35, End: 45, Parent: 2},
	}
	want := []int64{50, 30, 20, 10}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

// TestBenchmarkJSONMatches: BENCHMARK.json declares exactly the metrics
// the program reports, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("workloads: declared %v, implemented %v", names, workloadNames())
	}

	lat := make([]float64, measuredOps)
	for i := range lat {
		lat[i] = float64(i + 1)
	}
	e2e := endToEnd(&outcome{setup: []float64{1}, lat: lat, records: 1, rssMB: 1, diskBytes: 1, stored: 1})
	// 1 + 2 + … + 100 ms is 5.05 s of operations.
	if got := e2e["ops_per_s"].Value; got < 19.80197 || got > 19.80199 {
		t.Errorf("ops_per_s = %v, want 100 ops / 5.05 s", got)
	}
	if len(e2e) != len(decl.EndToEnd) {
		t.Errorf("end-to-end: declared %d metrics, reported %d", len(decl.EndToEnd), len(e2e))
	}
	for _, d := range decl.EndToEnd {
		if m, ok := e2e[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("end-to-end %s (%s): reported %+v, %v", d.Name, d.Unit, m, ok)
		}
	}

	layers := tracedMetrics(&outcome{layers: map[string]float64{}})
	if len(layers) != len(decl.PerLayer) {
		t.Errorf("per-layer: declared %d metrics, reported %d", len(decl.PerLayer), len(layers))
	}
	for _, d := range decl.PerLayer {
		if m, ok := layers[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("per-layer %s (%s): reported %+v, %v", d.Name, d.Unit, m, ok)
		}
	}
}
