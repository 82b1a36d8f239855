package engine

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/memgaze/memgaze-go/internal/trace"
)

// TestStreamAccumExact pins the sink contract: windows counted out of
// order — any permutation, any concurrency — sum to the built trace's
// record count.
func TestStreamAccumExact(t *testing.T) {
	tr := testTrace(12, 80)

	// Interleave nil windows (decoded-to-nothing captures) with real
	// ones, as BuildCaptureStream's sink sees them.
	windows := make([]*trace.Sample, 0, tr.NumSamples()+3)
	for i, s := range tr.AllSamples() {
		windows = append(windows, s)
		if i%4 == 1 {
			windows = append(windows, nil)
		}
	}

	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		order := rng.Perm(len(windows))
		sa := NewStreamAccum(64)
		if trial%2 == 0 {
			// Sequential shuffled arrival.
			for _, idx := range order {
				sa.AddSample(idx, windows[idx])
			}
		} else {
			// Concurrent arrival.
			var wg sync.WaitGroup
			for _, idx := range order {
				wg.Add(1)
				go func() {
					defer wg.Done()
					sa.AddSample(idx, windows[idx])
				}()
			}
			wg.Wait()
		}
		if got := sa.Records(); got != tr.NumRecords() {
			t.Fatalf("trial %d: Records = %d, want %d", trial, got, tr.NumRecords())
		}
	}
}
