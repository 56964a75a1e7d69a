package main

import (
	"math"
	"sort"
)

// summary is a sample reduced to what the report prints beside every
// median: the sample count and the quartiles.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	P25    float64 `json:"p25"`
	P75    float64 `json:"p75"`
}

// summarize computes the median and quartiles of xs with the method of
// Python's statistics.quantiles(xs, n=4) ("exclusive", which
// extrapolates past the extremes of very small samples), so a spread
// printed here is the spread a reader recomputes from the raw values. A
// single sample is its own quartiles; an empty one summarizes to NaN.
func summarize(xs []float64) summary {
	s := sorted(xs)
	q := quartiles(s)
	return summary{N: len(s), P25: q[0], Median: q[1], P75: q[2]}
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 { return quartiles(sorted(xs))[1] }

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles is statistics.quantiles(s, n=4) for an ascending sample,
// with Python's integer rank arithmetic.
func quartiles(s []float64) [3]float64 {
	n := len(s)
	switch n {
	case 0:
		nan := math.NaN()
		return [3]float64{nan, nan, nan}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - 4*j)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// tailLadder lists the percentiles a tail may be reported at, in
// hundredths of a percent so the rank arithmetic stays exact.
var tailLadder = []int{9999, 9990, 9900, 9500, 9000, 7500, 5000}

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tail returns the highest ladder percentile with at least minBeyond
// samples beyond it, and its nearest-rank value. ok is false when the
// sample is too small for even the median to qualify.
func tail(xs []float64) (pct, value float64, ok bool) {
	s := sorted(xs)
	n := len(s)
	for _, bp := range tailLadder {
		if k := nearestRank(n, bp); n-k >= minBeyond {
			return float64(bp) / 100, s[k-1], true
		}
	}
	return 0, 0, false
}

// percentile returns the nearest-rank percentile of xs at bp
// hundredths of a percent (9900 is p99); 0 for an empty sample.
func percentile(xs []float64, bp int) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	return s[nearestRank(len(s), bp)-1]
}

// nearestRank is the 1-based rank ceil(bp/10000 * n), at least 1.
func nearestRank(n, bp int) int { return max((bp*n+9999)/10000, 1) }
