package main

import "testing"

func TestHighestPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 0}, {10, 0}, {19, 0}, {20, 50}, {100, 90}, {199, 94}, {200, 95}, {999, 98}, {1000, 99}, {5000, 99},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var samples []float64
	for i := 200; i >= 1; i-- {
		samples = append(samples, float64(i))
	}
	if got := percentile(samples, 95); got != 190 {
		t.Errorf("p95 of 1..200 = %g, want 190 (10 samples beyond)", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %g, want 2", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %g, want 0", got)
	}
}
