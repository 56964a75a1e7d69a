package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("mean = %g, want 5", got)
	}
	if got := Std(xs); got != 2 {
		t.Errorf("std = %g, want 2", got)
	}
	if Mean(nil) != 0 || Std(nil) != 0 {
		t.Error("empty inputs should give 0")
	}
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 6)
	if m.At(0, 0) != 1 || m.At(1, 2) != 6 {
		t.Error("At/Set round trip failed")
	}
	row := m.Row(1)
	row[0] = 9
	if m.At(1, 0) != 9 {
		t.Error("Row is not a view")
	}
	col := m.Column(0)
	if col[0] != 1 || col[1] != 9 {
		t.Errorf("Column = %v", col)
	}
	c := m.Clone()
	c.Set(0, 0, 100)
	if m.At(0, 0) == 100 {
		t.Error("Clone shares storage")
	}
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if m.Rows != 2 || m.Cols != 2 || m.At(1, 0) != 3 {
		t.Error("FromRows wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("ragged FromRows did not panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestSelectColumns(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	s := m.SelectColumns([]int{2, 0})
	if s.Cols != 2 || s.At(0, 0) != 3 || s.At(1, 1) != 4 {
		t.Errorf("SelectColumns wrong: %+v", s)
	}
}

// randomMatrix is a deterministic rows x cols matrix of values on
// mixed scales, with column 3 held constant.
func randomMatrix(rows, cols int, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, rng.NormFloat64()*float64(j+1)+float64(j*j))
		}
		m.Set(i, 3, 3.25)
	}
	return m
}

// TestColumnStatsMatchesStats: the row-order column statistics equal
// Mean/Std on the materialized columns bit for bit.
func TestColumnStatsMatchesStats(t *testing.T) {
	m := randomMatrix(257, 47, 9)
	mean, std := columnStats(m)
	for j := 0; j < m.Cols; j++ {
		col := m.Column(j)
		if mean[j] != Mean(col) {
			t.Errorf("col %d: mean %v != Mean %v", j, mean[j], Mean(col))
		}
		if std[j] != Std(col) {
			t.Errorf("col %d: std %v != Std %v", j, std[j], Std(col))
		}
	}
	// Empty matrix: defined, all-zero statistics.
	mean, std = columnStats(NewMatrix(0, 3))
	for j := range mean {
		if mean[j] != 0 || std[j] != 0 || math.IsNaN(mean[j]) {
			t.Fatalf("empty matrix stats not zero: %v %v", mean, std)
		}
	}
}

// TestZScoreInPlaceMatchesColumns: in-place z-scoring is, element for
// element, (x - Mean(col)) / Std(col) with constant columns zeroed, and
// it returns those statistics.
func TestZScoreInPlaceMatchesColumns(t *testing.T) {
	m := randomMatrix(300, 47, 5)
	z := m.Clone()
	mean, std := ZScoreInPlace(z)
	for j := 0; j < m.Cols; j++ {
		col := m.Column(j)
		mu, sd := Mean(col), Std(col)
		if mean[j] != mu || std[j] != sd {
			t.Fatalf("col %d: returned stats (%v, %v), want (%v, %v)", j, mean[j], std[j], mu, sd)
		}
		for i := 0; i < m.Rows; i++ {
			want := 0.0
			if sd != 0 {
				want = (m.At(i, j) - mu) / sd
			}
			if z.At(i, j) != want {
				t.Fatalf("z(%d,%d) = %v, want %v", i, j, z.At(i, j), want)
			}
		}
	}
}

func TestZScoreNormalize(t *testing.T) {
	m := FromRows([][]float64{{1, 10, 5}, {2, 20, 5}, {3, 30, 5}})
	z := ZScoreNormalize(m)
	for j := 0; j < 2; j++ {
		col := z.Column(j)
		if math.Abs(Mean(col)) > 1e-12 {
			t.Errorf("column %d mean = %g, want 0", j, Mean(col))
		}
		if math.Abs(Std(col)-1) > 1e-12 {
			t.Errorf("column %d std = %g, want 1", j, Std(col))
		}
	}
	// Constant column becomes zeros, not NaN.
	for i := 0; i < 3; i++ {
		if z.At(i, 2) != 0 {
			t.Errorf("constant column z-score = %g, want 0", z.At(i, 2))
		}
	}
}

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	if got := Pearson(x, y); math.Abs(got-1) > 1e-12 {
		t.Errorf("perfect correlation = %g, want 1", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(x, neg); math.Abs(got+1) > 1e-12 {
		t.Errorf("perfect anticorrelation = %g, want -1", got)
	}
	if got := Pearson(x, []float64{5, 5, 5, 5, 5}); got != 0 {
		t.Errorf("correlation with constant = %g, want 0", got)
	}
	if Pearson(x, []float64{1, 2}) != 0 {
		t.Error("length mismatch should give 0")
	}
}

func TestPearsonBounded(t *testing.T) {
	f := func(xs, ys []float64) bool {
		n := len(xs)
		if len(ys) < n {
			n = len(ys)
		}
		// Constrain magnitudes so intermediate products cannot
		// overflow; characteristic data is normalized anyway.
		x := make([]float64, n)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			x[i] = math.Mod(xs[i], 1e6)
			y[i] = math.Mod(ys[i], 1e6)
			if math.IsNaN(x[i]) {
				x[i] = 0
			}
			if math.IsNaN(y[i]) {
				y[i] = 0
			}
		}
		r := Pearson(x, y)
		return r >= -1.0000001 && r <= 1.0000001 && !math.IsNaN(r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSpearman(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	// Monotone nonlinear transform: Spearman sees perfect correlation,
	// Pearson does not.
	y := []float64{1, 8, 27, 64, 125}
	if got := Spearman(x, y); math.Abs(got-1) > 1e-12 {
		t.Errorf("Spearman on monotone data = %g, want 1", got)
	}
	if p := Pearson(x, y); p >= 1-1e-9 {
		t.Errorf("Pearson on cubic data = %g, expected < 1", p)
	}
	rev := []float64{5, 4, 3, 2, 1}
	if got := Spearman(x, rev); math.Abs(got+1) > 1e-12 {
		t.Errorf("Spearman on reversed = %g, want -1", got)
	}
	if Spearman(x, []float64{1}) != 0 {
		t.Error("length mismatch should give 0")
	}
}

func TestSpearmanTies(t *testing.T) {
	// Ties get averaged ranks; correlation with self remains 1.
	x := []float64{1, 2, 2, 3}
	if got := Spearman(x, x); math.Abs(got-1) > 1e-12 {
		t.Errorf("Spearman(x,x) with ties = %g, want 1", got)
	}
	r := ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("ranks = %v, want %v", r, want)
		}
	}
}

func TestEuclidean(t *testing.T) {
	if got := Euclidean([]float64{0, 0}, []float64{3, 4}); got != 5 {
		t.Errorf("distance = %g, want 5", got)
	}
	if got := Euclidean([]float64{1}, []float64{1}); got != 0 {
		t.Errorf("self distance = %g", got)
	}
}

func TestPairwiseDistancesAndIndex(t *testing.T) {
	m := FromRows([][]float64{{0}, {1}, {3}, {6}})
	d := PairwiseDistances(m)
	if len(d) != NumPairs(4) {
		t.Fatalf("got %d pairs, want 6", len(d))
	}
	want := map[[2]int]float64{
		{0, 1}: 1, {0, 2}: 3, {0, 3}: 6,
		{1, 2}: 2, {1, 3}: 5,
		{2, 3}: 3,
	}
	for pair, dist := range want {
		idx := PairIndex(4, pair[0], pair[1])
		if d[idx] != dist {
			t.Errorf("distance(%d,%d) = %g at index %d, want %g", pair[0], pair[1], d[idx], idx, dist)
		}
		// Symmetric index.
		if PairIndex(4, pair[1], pair[0]) != idx {
			t.Error("PairIndex not symmetric")
		}
	}
}

func TestPairIndexCoversAll(t *testing.T) {
	n := 17
	seen := make([]bool, NumPairs(n))
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			idx := PairIndex(n, i, j)
			if idx < 0 || idx >= len(seen) || seen[idx] {
				t.Fatalf("PairIndex(%d,%d,%d) = %d invalid or duplicate", n, i, j, idx)
			}
			seen[idx] = true
		}
	}
}

func TestMax(t *testing.T) {
	if Max([]float64{3, 9, 1}) != 9 {
		t.Error("Max wrong")
	}
	if Max(nil) != 0 {
		t.Error("Max of empty should be 0")
	}
}

func TestMinMaxNormalizeColumns(t *testing.T) {
	m := FromRows([][]float64{{0, 7}, {5, 7}, {10, 7}})
	n := MinMaxNormalizeColumns(m)
	if n.At(0, 0) != 0 || n.At(1, 0) != 0.5 || n.At(2, 0) != 1 {
		t.Errorf("column 0 normalized wrong: %v", n.Column(0))
	}
	for i := 0; i < 3; i++ {
		if n.At(i, 1) != 0.5 {
			t.Errorf("constant column -> %g, want 0.5", n.At(i, 1))
		}
	}
}
