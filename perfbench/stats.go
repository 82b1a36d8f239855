package main

import (
	"math"
	"slices"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: a tail figure resting on fewer is one slow operation, not
// a distribution.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs and
// whether it may be reported: at least minBeyond samples must rank above
// it. xs need not be sorted; it is not modified.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p * float64(n))) // 1-based nearest rank
	rank = max(1, min(rank, n))
	if n-rank < minBeyond {
		return 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank-1], true
}

// median is the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// errorRate is failed operations over attempted ones; 0 when nothing was
// attempted.
func errorRate(failed, attempted int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
