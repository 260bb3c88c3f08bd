package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// samples, sorting them in place. It returns 0 for no samples.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	k := int(math.Ceil(p / 100 * float64(len(samples))))
	if k < 1 {
		k = 1
	}
	if k > len(samples) {
		k = len(samples)
	}
	return samples[k-1]
}

// median is percentile 50.
func median(samples []float64) float64 { return percentile(samples, 50) }

// highestPercentile is the highest whole percentile of n samples that leaves
// at least minBeyond samples beyond it under nearest rank, or 0 when n is too
// small for any. 200 samples support p95; 1000 support p99.
func highestPercentile(n int) int {
	for p := 99; p >= 50; p-- {
		k := int(math.Ceil(float64(p) / 100 * float64(n)))
		if n-k >= minBeyond {
			return p
		}
	}
	return 0
}

// ratio is a / b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
