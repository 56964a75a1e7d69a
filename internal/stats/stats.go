package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Std returns the population standard deviation of xs.
func Std(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	mu := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - mu
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// ZScoreNormalize returns a copy of m with every column scaled to zero
// mean and unit standard deviation across the rows — the paper's
// normalization step that puts all characteristics on a common scale.
// Constant columns (zero standard deviation) become all-zero.
func ZScoreNormalize(m *Matrix) *Matrix {
	out := m.Clone()
	ZScoreInPlace(out)
	return out
}

// ZScoreInPlace is ZScoreNormalize without the copy: it overwrites m
// with its z-scores and returns the per-column mean and standard
// deviation it normalized with.
func ZScoreInPlace(m *Matrix) (mean, std []float64) {
	mean, std = columnStats(m)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			if std[j] == 0 {
				row[j] = 0
			} else {
				row[j] = (v - mean[j]) / std[j]
			}
		}
	}
	return mean, std
}

// columnStats returns the per-column mean and population standard
// deviation of m. Each column's sums accumulate in row order, so the
// results equal Mean and Std on the column bit for bit.
func columnStats(m *Matrix) (mean, std []float64) {
	mean = make([]float64, m.Cols)
	std = make([]float64, m.Cols)
	if m.Rows == 0 {
		return mean, std
	}
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(m.Rows)
	}
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			dv := v - mean[j]
			std[j] += dv * dv
		}
	}
	for j := range std {
		std[j] = math.Sqrt(std[j] / float64(m.Rows))
	}
	return mean, std
}

// Pearson returns the Pearson correlation coefficient of x and y. It is 0
// when either input is constant or the lengths differ.
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) || len(x) == 0 {
		return 0
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Spearman returns the Spearman rank correlation of x and y: the Pearson
// correlation of their ranks. It is robust to monotone nonlinearity and
// is used as an ablation alternative to Pearson in the
// distance-correlation analyses.
func Spearman(x, y []float64) float64 {
	if len(x) != len(y) || len(x) == 0 {
		return 0
	}
	return Pearson(ranks(x), ranks(y))
}

// ranks returns fractional ranks (ties averaged).
func ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	out := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		// Average rank for the tie group [i, j].
		r := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			out[idx[k]] = r
		}
		i = j + 1
	}
	return out
}

// Euclidean returns the Euclidean distance between two equal-length
// vectors.
func Euclidean(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("stats: distance between vectors of length %d and %d", len(a), len(b)))
	}
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// NumPairs returns the number of unordered benchmark tuples for n rows.
func NumPairs(n int) int { return n * (n - 1) / 2 }

// PairIndex returns the canonical index of pair (i, j), i < j, in the
// vector produced by PairwiseDistances.
func PairIndex(n, i, j int) int {
	if i > j {
		i, j = j, i
	}
	// Pairs are emitted in row-major upper-triangle order.
	return i*(2*n-i-1)/2 + (j - i - 1)
}

// PairwiseDistances returns the Euclidean distances between all unordered
// row pairs of m, in canonical (PairIndex) order. This is the "distance
// between all benchmark tuples" of Figures 1 and 5.
func PairwiseDistances(m *Matrix) []float64 {
	out := make([]float64, 0, NumPairs(m.Rows))
	for i := 0; i < m.Rows; i++ {
		ri := m.Row(i)
		for j := i + 1; j < m.Rows; j++ {
			out = append(out, Euclidean(ri, m.Row(j)))
		}
	}
	return out
}

// Max returns the maximum of xs (0 for empty input).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// MinMaxNormalizeColumns scales every column of m into [0, 1] by its
// observed min and max; constant columns become 0.5. Used for kiviat
// plotting where axes must share a bounded range.
func MinMaxNormalizeColumns(m *Matrix) *Matrix {
	out := m.Clone()
	for j := 0; j < m.Cols; j++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < m.Rows; i++ {
			v := m.At(i, j)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		for i := 0; i < m.Rows; i++ {
			if hi == lo {
				out.Set(i, j, 0.5)
			} else {
				out.Set(i, j, (m.At(i, j)-lo)/(hi-lo))
			}
		}
	}
	return out
}
