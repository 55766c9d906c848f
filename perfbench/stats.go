package main

import (
	"math"
	"sort"
)

// tailPercentiles are the candidates for a timing's reported tail, from
// the highest down.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of sorted
// samples and how many samples lie strictly beyond its rank.
func quantile(sorted []float64, q float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), 0
	}
	// The epsilon keeps float error in q*n (0.999*10000 is a hair above
	// 9990) from moving the rank up by one.
	k := int(math.Ceil(q*float64(n)-1e-9)) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return sorted[k], n - 1 - k
}

// tail returns the highest of tailPercentiles that has at least ten
// samples beyond it, its value, and the sample count. Fewer than eleven
// samples have no such percentile; tail then reports the maximum as
// percentile 100.
func tail(samples []float64) (pct, v float64, n int) { return tailAtMost(samples, 100) }

// tailAtMost is tail restricted to percentiles up to limit.
func tailAtMost(samples []float64, limit float64) (pct, v float64, n int) {
	s := sortedCopy(samples)
	for _, p := range tailPercentiles {
		if p > limit {
			continue
		}
		if x, beyond := quantile(s, p/100); beyond >= 10 {
			return p, x, len(s)
		}
	}
	if len(s) == 0 {
		return 100, math.NaN(), 0
	}
	return 100, s[len(s)-1], len(s)
}

// median returns the nearest-rank median of samples.
func median(samples []float64) float64 {
	v, _ := quantile(sortedCopy(samples), 0.5)
	return v
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}
