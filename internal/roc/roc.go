// Package roc implements the paper's similarity-classification analysis:
// the quadrant classification of benchmark tuples (Table III) and the
// receiver operating characteristic evaluation of workload
// characterization methods (Figure 4).
//
// The convention follows Section IV: the "truth" label of a benchmark
// tuple is whether its distance in the hardware-performance-counter space
// is large (greater than a threshold fixed at 20% of the maximum observed
// distance); the "prediction" is whether its distance in the
// microarchitecture-independent space is large.
package roc

import (
	"fmt"
	"math"
	"sort"

	"mica/internal/stats"
)

// DefaultThresholdFraction is the paper's 20%-of-maximum-distance
// classification threshold.
const DefaultThresholdFraction = 0.20

// Quadrants counts benchmark tuples by classification outcome (Table III).
type Quadrants struct {
	TruePositive  int // large HPC distance, large uarch-independent distance
	TrueNegative  int // small HPC distance, small uarch-independent distance
	FalsePositive int // small HPC distance, large uarch-independent distance
	FalseNegative int // large HPC distance, small uarch-independent distance
}

// Total returns the number of classified tuples.
func (q Quadrants) Total() int {
	return q.TruePositive + q.TrueNegative + q.FalsePositive + q.FalseNegative
}

// Fractions returns the four quadrant fractions in Table III order
// (FN, TP, TN, FP).
func (q Quadrants) Fractions() (fn, tp, tn, fp float64) {
	t := float64(q.Total())
	if t == 0 {
		return 0, 0, 0, 0
	}
	return float64(q.FalseNegative) / t, float64(q.TruePositive) / t,
		float64(q.TrueNegative) / t, float64(q.FalsePositive) / t
}

// Sensitivity is the true positive rate: of the tuples distant in the HPC
// space, the fraction also distant in the uarch-independent space.
func (q Quadrants) Sensitivity() float64 {
	d := q.TruePositive + q.FalseNegative
	if d == 0 {
		return 0
	}
	return float64(q.TruePositive) / float64(d)
}

// Specificity is the true negative rate: of the tuples close in the HPC
// space, the fraction also close in the uarch-independent space.
func (q Quadrants) Specificity() float64 {
	d := q.TrueNegative + q.FalsePositive
	if d == 0 {
		return 0
	}
	return float64(q.TrueNegative) / float64(d)
}

// String formats the quadrants as the Table III percentages.
func (q Quadrants) String() string {
	fn, tp, tn, fp := q.Fractions()
	return fmt.Sprintf("FN %.1f%%  TP %.1f%%  TN %.1f%%  FP %.1f%%",
		fn*100, tp*100, tn*100, fp*100)
}

// Classify labels every benchmark tuple given the two distance vectors
// (in the same canonical pair order) and absolute distance thresholds.
func Classify(hpcDist, indepDist []float64, hpcThresh, indepThresh float64) Quadrants {
	if len(hpcDist) != len(indepDist) {
		panic(fmt.Sprintf("roc: distance vectors of length %d and %d", len(hpcDist), len(indepDist)))
	}
	var q Quadrants
	for i := range hpcDist {
		largeHPC := hpcDist[i] > hpcThresh
		largeIndep := indepDist[i] > indepThresh
		switch {
		case largeHPC && largeIndep:
			q.TruePositive++
		case !largeHPC && !largeIndep:
			q.TrueNegative++
		case !largeHPC && largeIndep:
			q.FalsePositive++
		default:
			q.FalseNegative++
		}
	}
	return q
}

// ClassifyAtFraction classifies with both thresholds at the given
// fraction of each space's maximum observed distance (the paper uses
// 0.20 for both).
func ClassifyAtFraction(hpcDist, indepDist []float64, frac float64) Quadrants {
	return Classify(hpcDist, indepDist, frac*stats.Max(hpcDist), frac*stats.Max(indepDist))
}

// Point is one ROC curve point: sensitivity versus one minus specificity
// at some uarch-independent-space threshold.
type Point struct {
	Threshold    float64
	Sensitivity  float64
	OneMinusSpec float64
}

// Curve sweeps the classification threshold in the
// microarchitecture-independent space while holding the HPC-space
// threshold fixed at hpcFrac of its maximum distance, exactly as in
// Figure 4. The sweep visits every distinct indep distance (plus the
// extremes), producing a monotone curve from (0,0) to (1,1).
//
// Each point equals Classify at its threshold, but the sweep costs
// O(P log P) rather than a Classify pass per threshold: the indep
// distances of each HPC label are sorted once, and a cursor per label
// counts the "small" tuples (indep <= threshold) as the ascending
// thresholds pass them.
func Curve(hpcDist, indepDist []float64, hpcFrac float64) []Point {
	if len(hpcDist) != len(indepDist) {
		panic("roc: mismatched distance vectors")
	}
	hpcThresh := hpcFrac * stats.Max(hpcDist)

	// Sweep each distinct distance once: between two consecutive
	// distinct distances the classification is constant, so a repeated
	// distance would re-emit the same point.
	thresholds := append([]float64{-1}, indepDist...)
	sort.Float64s(thresholds)
	uniq := thresholds[:1]
	for _, th := range thresholds[1:] {
		if th != uniq[len(uniq)-1] {
			uniq = append(uniq, th)
		}
	}
	thresholds = uniq

	// Split the indep distances by truth label: positives have a large
	// HPC distance. sort.Float64s puts NaN first; a NaN distance is
	// never "large", so it belongs to the small prefix at every
	// threshold, just as in Classify.
	var pos, neg []float64
	for i, h := range hpcDist {
		if h > hpcThresh {
			pos = append(pos, indepDist[i])
		} else {
			neg = append(neg, indepDist[i])
		}
	}
	sort.Float64s(pos)
	sort.Float64s(neg)

	points := make([]Point, 0, len(thresholds))
	var posSmall, negSmall int // cursors: tuples of each label with indep <= th
	for _, th := range thresholds {
		fn, tn := len(pos), len(neg) // a NaN threshold makes every tuple small
		if !math.IsNaN(th) {
			for posSmall < len(pos) && !(pos[posSmall] > th) {
				posSmall++
			}
			for negSmall < len(neg) && !(neg[negSmall] > th) {
				negSmall++
			}
			fn, tn = posSmall, negSmall
		}
		q := Quadrants{
			TruePositive:  len(pos) - fn,
			FalseNegative: fn,
			TrueNegative:  tn,
			FalsePositive: len(neg) - tn,
		}
		points = append(points, Point{
			Threshold:    th,
			Sensitivity:  q.Sensitivity(),
			OneMinusSpec: 1 - q.Specificity(),
		})
	}
	// Order by x (one minus specificity) for AUC integration; with a
	// rising threshold both axes fall monotonically from (1,1) to (0,0).
	sort.Slice(points, func(i, j int) bool {
		if points[i].OneMinusSpec != points[j].OneMinusSpec {
			return points[i].OneMinusSpec < points[j].OneMinusSpec
		}
		return points[i].Sensitivity < points[j].Sensitivity
	})
	return points
}

// AUC integrates the area under the ROC curve with the trapezoid rule.
// Points must be sorted by OneMinusSpec (Curve returns them sorted).
func AUC(points []Point) float64 {
	if len(points) == 0 {
		return 0
	}
	area := 0.0
	prevX, prevY := 0.0, 0.0
	for _, p := range points {
		area += (p.OneMinusSpec - prevX) * (p.Sensitivity + prevY) / 2
		prevX, prevY = p.OneMinusSpec, p.Sensitivity
	}
	// Close the curve at (1, 1).
	area += (1 - prevX) * (1 + prevY) / 2
	return area
}
