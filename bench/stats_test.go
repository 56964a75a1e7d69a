package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

// oracleQuartiles is Python's statistics.quantiles(data, n=4) with the
// default "exclusive" method, transcribed line by line: the spread the
// benchmark's reader computes from the raw values.
func oracleQuartiles(data []float64) [3]float64 {
	s := append([]float64(nil), data...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out
}

func TestSummarizeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for n := 2; n <= 60; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()*10 + 100
		}
		if n%7 == 0 {
			xs[1] = xs[0] // ties
		}
		got := summarize(xs)
		want := oracleQuartiles(xs)
		for i, g := range []float64{got.P25, got.Median, got.P75} {
			if math.Abs(g-want[i]) > 1e-9 {
				t.Fatalf("n=%d quartile %d = %v, oracle %v", n, i+1, g, want[i])
			}
		}
		if got.N != n {
			t.Fatalf("n=%d: summary counts %d samples", n, got.N)
		}
	}
	if s := summarize([]float64{4}); s.Median != 4 || s.P25 != 4 || s.P75 != 4 {
		t.Fatalf("single sample summarizes to %+v", s)
	}
	if !math.IsNaN(summarize(nil).Median) {
		t.Fatal("empty sample must summarize to NaN")
	}
}

// TestTailRule checks the reported tail against brute force: the
// highest ladder percentile whose nearest-rank value has at least ten
// samples strictly above it.
func TestTailRule(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for _, n := range []int{5, 10, 19, 20, 21, 39, 40, 41, 99, 100, 101, 200, 999, 1000, 1001, 1999, 10000, 10010, 100000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() // distinct with probability 1
		}
		pct, v, ok := tail(xs)

		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		wantOK := false
		var wantPct, wantV float64
		for _, p := range []float64{99.99, 99.9, 99, 95, 90, 75, 50} {
			k := 0 // smallest rank with at least p% of the samples at or below it
			for k < n && float64(k)*100 < p*float64(n)-1e-9 {
				k++
			}
			k = max(k, 1)
			beyond := 0
			for _, x := range s {
				if x > s[k-1] {
					beyond++
				}
			}
			if beyond >= 10 {
				wantOK, wantPct, wantV = true, p, s[k-1]
				break
			}
		}
		if ok != wantOK || pct != wantPct || v != wantV {
			t.Errorf("n=%d: tail = (p%v, %v, %v), oracle (p%v, %v, %v)", n, pct, v, ok, wantPct, wantV, wantOK)
		}
	}
}
