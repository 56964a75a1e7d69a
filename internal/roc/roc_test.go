package roc

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"

	"mica/internal/stats"
)

func TestClassifyQuadrants(t *testing.T) {
	hpc := []float64{10, 10, 1, 1}
	indep := []float64{10, 1, 10, 1}
	q := Classify(hpc, indep, 5, 5)
	if q.TruePositive != 1 || q.FalseNegative != 1 || q.FalsePositive != 1 || q.TrueNegative != 1 {
		t.Errorf("quadrants = %+v, want one each", q)
	}
	if q.Total() != 4 {
		t.Errorf("total = %d", q.Total())
	}
	fn, tp, tn, fp := q.Fractions()
	if fn != 0.25 || tp != 0.25 || tn != 0.25 || fp != 0.25 {
		t.Error("fractions wrong")
	}
}

func TestClassifyAtFraction(t *testing.T) {
	// Max distances: hpc 10, indep 100; 20% thresholds: 2 and 20.
	hpc := []float64{10, 3, 1}
	indep := []float64{100, 10, 30}
	q := ClassifyAtFraction(hpc, indep, 0.2)
	// (10,100): TP. (3,10): large hpc, small indep: FN. (1,30): small
	// hpc, large indep: FP.
	if q.TruePositive != 1 || q.FalseNegative != 1 || q.FalsePositive != 1 || q.TrueNegative != 0 {
		t.Errorf("quadrants = %+v", q)
	}
}

func TestSensitivitySpecificity(t *testing.T) {
	q := Quadrants{TruePositive: 8, FalseNegative: 2, TrueNegative: 3, FalsePositive: 7}
	if got := q.Sensitivity(); got != 0.8 {
		t.Errorf("sensitivity = %g, want 0.8", got)
	}
	if got := q.Specificity(); got != 0.3 {
		t.Errorf("specificity = %g, want 0.3", got)
	}
	var empty Quadrants
	if empty.Sensitivity() != 0 || empty.Specificity() != 0 {
		t.Error("empty quadrants should give 0 rates")
	}
}

func TestPerfectClassifierAUC(t *testing.T) {
	// Indep distance identical to HPC distance: perfect agreement.
	d := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	pts := Curve(d, d, 0.5)
	auc := AUC(pts)
	if auc < 0.99 {
		t.Errorf("perfect agreement AUC = %g, want ~1", auc)
	}
}

func TestAntiCorrelatedAUCIsLow(t *testing.T) {
	hpc := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	indep := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	auc := AUC(Curve(hpc, indep, 0.5))
	if auc > 0.2 {
		t.Errorf("anti-correlated AUC = %g, want ~0", auc)
	}
}

func TestCurveEndpoints(t *testing.T) {
	hpc := []float64{1, 5, 9, 2, 7}
	indep := []float64{3, 1, 8, 6, 2}
	pts := Curve(hpc, indep, 0.2)
	if len(pts) == 0 {
		t.Fatal("empty curve")
	}
	// With threshold below all distances everything is "large":
	// sensitivity 1, specificity 0.
	first := pts[len(pts)-1]
	if first.Sensitivity != 1 || first.OneMinusSpec != 1 {
		t.Errorf("lowest-threshold point = %+v, want (1,1)", first)
	}
	// With threshold at the max everything is "small".
	last := pts[0]
	if last.Sensitivity != 0 || last.OneMinusSpec != 0 {
		t.Errorf("highest-threshold point = %+v, want (0,0)", last)
	}
}

func TestCurveMonotone(t *testing.T) {
	hpc := []float64{1, 5, 9, 2, 7, 4, 8, 3}
	indep := []float64{2, 4, 7, 3, 6, 5, 9, 1}
	pts := Curve(hpc, indep, 0.3)
	for i := 1; i < len(pts); i++ {
		if pts[i].OneMinusSpec < pts[i-1].OneMinusSpec {
			t.Fatal("curve x not sorted")
		}
		if pts[i].Sensitivity+1e-12 < pts[i-1].Sensitivity {
			t.Fatal("sensitivity not monotone along curve")
		}
	}
}

func TestAUCBounds(t *testing.T) {
	hpc := []float64{1, 5, 9, 2, 7, 4}
	indep := []float64{2, 4, 7, 3, 6, 5}
	auc := AUC(Curve(hpc, indep, 0.2))
	if auc < 0 || auc > 1 || math.IsNaN(auc) {
		t.Errorf("AUC = %g out of bounds", auc)
	}
}

func TestQuadrantsString(t *testing.T) {
	q := Quadrants{TruePositive: 1, TrueNegative: 1, FalsePositive: 1, FalseNegative: 1}
	s := q.String()
	if s == "" {
		t.Error("empty string")
	}
}

// naiveCurve is the pre-deduplication reference implementation: one
// classification pass per entry of indepDist, duplicates included. The
// regression below pins that removing duplicate thresholds changes
// neither the curve's shape nor its area.
func naiveCurve(hpcDist, indepDist []float64, hpcFrac float64) []Point {
	hpcThresh := hpcFrac * max(hpcDist)
	thresholds := append([]float64{-1}, indepDist...)
	sort.Float64s(thresholds)
	points := make([]Point, 0, len(thresholds))
	for _, th := range thresholds {
		q := Classify(hpcDist, indepDist, hpcThresh, th)
		points = append(points, Point{Threshold: th, Sensitivity: q.Sensitivity(), OneMinusSpec: 1 - q.Specificity()})
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].OneMinusSpec != points[j].OneMinusSpec {
			return points[i].OneMinusSpec < points[j].OneMinusSpec
		}
		return points[i].Sensitivity < points[j].Sensitivity
	})
	return points
}

func max(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// TestCurveDeduplicatesRepeatedDistances: repeated indep distances
// (duplicate benchmarks, symmetric tuples) must not emit duplicate
// curve points, and deduplication must leave the AUC untouched.
func TestCurveDeduplicatesRepeatedDistances(t *testing.T) {
	hpc := []float64{1, 8, 3, 9, 2, 8, 3, 9, 5, 5}
	indep := []float64{2, 7, 2, 9, 2, 7, 4, 9, 4, 6}

	curve := Curve(hpc, indep, 0.2)
	reference := naiveCurve(hpc, indep, 0.2)

	// AUC unchanged: the duplicate points the old sweep emitted were
	// zero-width trapezoids.
	if got, want := AUC(curve), AUC(reference); math.Abs(got-want) > 1e-12 {
		t.Errorf("AUC changed by deduplication: %g vs %g", got, want)
	}

	// One point per distinct threshold: 5 distinct distances
	// (2, 4, 6, 7, 9) plus the -1 sentinel.
	if len(curve) != 6 {
		t.Errorf("curve has %d points, want 6 (5 distinct distances + sentinel)", len(curve))
	}

	// Points strictly ordered: sorted ascending and pairwise distinct —
	// each threshold step flips at least one tuple in one direction, so
	// no two points may coincide.
	for i := 1; i < len(curve); i++ {
		a, b := curve[i-1], curve[i]
		if a.OneMinusSpec > b.OneMinusSpec {
			t.Errorf("points %d,%d out of order on 1-specificity: %g > %g", i-1, i, a.OneMinusSpec, b.OneMinusSpec)
		}
		if a.OneMinusSpec == b.OneMinusSpec && a.Sensitivity >= b.Sensitivity {
			t.Errorf("points %d,%d not strictly ordered: (%g,%g) then (%g,%g)",
				i-1, i, a.OneMinusSpec, a.Sensitivity, b.OneMinusSpec, b.Sensitivity)
		}
	}
}

// classifyCurve is the per-threshold oracle for Curve: one Classify
// pass over every tuple at each distinct threshold, O(P²). Curve must
// reproduce it point for point, Threshold bits included.
func classifyCurve(hpcDist, indepDist []float64, hpcFrac float64) []Point {
	hpcThresh := hpcFrac * stats.Max(hpcDist)
	thresholds := append([]float64{-1}, indepDist...)
	sort.Float64s(thresholds)
	uniq := thresholds[:1]
	for _, th := range thresholds[1:] {
		if th != uniq[len(uniq)-1] {
			uniq = append(uniq, th)
		}
	}
	points := make([]Point, 0, len(uniq))
	for _, th := range uniq {
		q := Classify(hpcDist, indepDist, hpcThresh, th)
		points = append(points, Point{Threshold: th, Sensitivity: q.Sensitivity(), OneMinusSpec: 1 - q.Specificity()})
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].OneMinusSpec != points[j].OneMinusSpec {
			return points[i].OneMinusSpec < points[j].OneMinusSpec
		}
		return points[i].Sensitivity < points[j].Sensitivity
	})
	return points
}

// sameFloat is bit equality, except that any two NaNs are equal.
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

func checkCurveMatchesOracle(t *testing.T, hpc, indep []float64, frac float64) {
	t.Helper()
	got, want := Curve(hpc, indep, frac), classifyCurve(hpc, indep, frac)
	if len(got) != len(want) {
		t.Fatalf("Curve has %d points, oracle %d (hpc %v indep %v frac %v)", len(got), len(want), hpc, indep, frac)
	}
	for i := range want {
		g, w := got[i], want[i]
		if !sameFloat(g.Threshold, w.Threshold) || !sameFloat(g.Sensitivity, w.Sensitivity) || !sameFloat(g.OneMinusSpec, w.OneMinusSpec) {
			t.Fatalf("point %d = %+v, oracle %+v (hpc %v indep %v frac %v)", i, g, w, hpc, indep, frac)
		}
	}
}

// TestCurveMatchesClassifyOracle pins the one-pass sweep to the
// per-threshold oracle over random inputs with heavy ties and over the
// edge cases: empty input, all-positive and all-negative labels, NaN
// and ±Inf on either side, and signed zeros.
func TestCurveMatchesClassifyOracle(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	cases := []struct {
		name       string
		hpc, indep []float64
		frac       float64
	}{
		{"empty", nil, nil, 0.2},
		{"single", []float64{3}, []float64{4}, 0.2},
		{"all-positive", []float64{5, 6, 7, 8}, []float64{1, 2, 2, 3}, 0},
		{"all-negative", []float64{5, 6, 7, 8}, []float64{1, 2, 2, 3}, 1},
		{"duplicates", []float64{1, 8, 3, 9, 2, 8, 3, 9, 5, 5}, []float64{2, 7, 2, 9, 2, 7, 4, 9, 4, 6}, 0.2},
		{"nan-indep", []float64{1, 9, 3, 8}, []float64{nan, 2, nan, 5}, 0.2},
		{"nan-hpc", []float64{nan, 9, 3, 8}, []float64{1, 2, 3, 5}, 0.2},
		{"nan-hpc-max", []float64{1, 9, nan, 8}, []float64{1, 2, 3, 5}, 0.2},
		{"nan-frac", []float64{1, 9, 3, 8}, []float64{1, 2, 3, 5}, nan},
		{"inf", []float64{inf, 1, -inf, 4}, []float64{inf, -inf, 2, inf}, 0.2},
		{"negatives-and-sentinel", []float64{1, 2, 3, 4}, []float64{-1, -2, -1, 0}, 0.5},
		{"signed-zero", []float64{1, 2, 3, 4}, []float64{0, math.Copysign(0, -1), 0, 1}, 0.5},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkCurveMatchesOracle(t, c.hpc, c.indep, c.frac) })
	}

	rng := rand.New(rand.NewSource(15))
	specials := []float64{nan, inf, -inf, 0, -1}
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(60)
		levels := 1 + rng.Intn(12) // few levels: many ties
		hpc, indep := make([]float64, n), make([]float64, n)
		for i := range hpc {
			hpc[i] = float64(rng.Intn(levels))
			indep[i] = float64(rng.Intn(levels)) / 3
			if rng.Intn(20) == 0 {
				indep[i] = specials[rng.Intn(len(specials))]
			}
			if rng.Intn(40) == 0 {
				hpc[i] = specials[rng.Intn(len(specials))]
			}
		}
		checkCurveMatchesOracle(t, hpc, indep, rng.Float64())
	}
}

// FuzzCurve checks the one-pass sweep against the per-threshold oracle
// on arbitrary inputs: the fuzzer's bytes become (hpc, indep) pairs.
func FuzzCurve(f *testing.F) {
	f.Add([]byte{}, 0.2)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, 0.2)
	f.Add([]byte{0xff, 0xf8, 0, 0, 0, 0, 0, 1, 0x7f, 0xf0, 0, 0, 0, 0, 0, 0}, 0.5) // NaN, +Inf
	f.Add([]byte{5, 5, 5, 5, 5, 5, 5, 5, 5, 5}, 1.0)
	f.Fuzz(func(t *testing.T, data []byte, frac float64) {
		// Two encodings mixed: a byte pair as small integers (ties),
		// or 16 bytes as raw float64 bits (NaN, ±Inf, subnormals).
		var hpc, indep []float64
		for len(data) >= 2 && len(hpc) < 256 {
			if data[0]&1 == 0 || len(data) < 16 {
				hpc = append(hpc, float64(data[0]>>1))
				indep = append(indep, float64(data[1]&15))
				data = data[2:]
				continue
			}
			hpc = append(hpc, math.Float64frombits(binary.LittleEndian.Uint64(data)))
			indep = append(indep, math.Float64frombits(binary.LittleEndian.Uint64(data[8:])))
			data = data[16:]
		}
		checkCurveMatchesOracle(t, hpc, indep, frac)
	})
}
