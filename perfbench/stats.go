package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a percentile with fewer behind it is one or two outliers, not a
// distribution figure.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// samples. It refuses, with an error, when fewer than minBeyond samples
// lie above the returned rank.
func percentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %v outside (0, 100)", p)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%v of %d samples has %d beyond it, want at least %d",
			p, n, n-rank, minBeyond)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// layerPercentile is percentile for per-layer figures: a layer the
// workload bypasses (no samples) or barely touches reports 0 instead of
// failing the run, because per-layer metrics are printed for every
// workload. The note says which figure was left out and why.
func layerPercentile(name string, samples []float64, p float64, notes *[]string) float64 {
	if len(samples) == 0 {
		return 0
	}
	v, err := percentile(samples, p)
	if err != nil {
		*notes = append(*notes, fmt.Sprintf("%s: %v; reported as 0", name, err))
		return 0
	}
	return v
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no samples.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(samples []float64) float64 {
	var t float64
	for _, v := range samples {
		t += v
	}
	return t
}

// ratio is a/b, or 0 when b is 0 (a counter over an empty base).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
