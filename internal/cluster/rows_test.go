package cluster

import (
	"context"
	"math"
	"reflect"
	"testing"

	"mica/internal/stats"
)

// volatileRows serves matrix rows through a single reused buffer, the
// row-validity contract of the Rows interface taken literally. Any
// engine that holds one row across a Row call would corrupt its
// results here — the property store-backed shard readers rely on.
type volatileRows struct {
	m   *stats.Matrix
	buf []float64
}

func newVolatile(m *stats.Matrix) *volatileRows {
	return &volatileRows{m: m, buf: make([]float64, m.Cols)}
}

func (v *volatileRows) Len() int { return v.m.Rows }
func (v *volatileRows) Dim() int { return v.m.Cols }
func (v *volatileRows) Row(i int) []float64 {
	copy(v.buf, v.m.Row(i))
	return v.buf
}

// reverseGatherRows additionally implements Gather with a deliberately
// reordered read schedule (descending row index), the way a shard
// reader batches reads for locality — the values must land in caller
// order regardless.
type reverseGatherRows struct{ volatileRows }

func (r *reverseGatherRows) Gather(idx []int, dst *stats.Matrix) {
	for j := len(idx) - 1; j >= 0; j-- {
		copy(dst.Row(j), r.m.Row(idx[j]))
	}
}

// TestEnginesOnVolatileRows: every engine must produce bit-identical
// results whether rows come from a stable matrix or a buffer-reusing
// source.
func TestEnginesOnVolatileRows(t *testing.T) {
	m := SyntheticPhaseBlobs(600, 5, 11)
	for _, eng := range []engine{engineLloyd, engineMiniBatch} {
		want := ownAssign(kmeansRun(m, 4, 42, eng, nil, newScratch()))
		got := ownAssign(kmeansRun(newVolatile(m), 4, 42, eng, nil, newScratch()))
		if !reflect.DeepEqual(want, got) {
			t.Errorf("engine %d diverges on a volatile row source", eng)
		}
	}
}

// TestSelectKRowsMatchesSelectK: the row-source sweep is bit-identical
// to the matrix sweep, for the exact engines and — through the gather
// path — for minibatch above the auto-switch threshold.
func TestSelectKRowsMatchesSelectK(t *testing.T) {
	small := SyntheticPhaseBlobs(500, 4, 7)
	big := SyntheticPhaseBlobs(9000, 6, 7) // above miniBatchRows: engineAuto picks minibatch
	for _, tc := range []struct {
		name string
		m    *stats.Matrix
	}{{"small-exact", small}, {"big-minibatch", big}} {
		want := SelectK(tc.m, 6, 2006)
		for _, open := range []func() Rows{
			func() Rows { return newVolatile(tc.m) },
			func() Rows { return &reverseGatherRows{*newVolatile(tc.m)} },
		} {
			got, err := SelectKRows(context.Background(), open, 6, 2006, SweepOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s: SelectKRows diverges from SelectK", tc.name)
			}
		}
	}
}

// TestNormalizedMatchesZScore: the lazy z-score view is bit-identical,
// element for element, to the materialized normalization, including
// the zeroed constant-column convention.
func TestNormalizedMatchesZScore(t *testing.T) {
	m := SyntheticPhaseBlobs(300, 3, 5)
	// Plant a constant column to exercise the std == 0 branch.
	for i := 0; i < m.Rows; i++ {
		m.Set(i, 7, 3.25)
	}
	want := stats.ZScoreNormalize(m)
	mean, std := ColumnStats(m)
	view := Normalized(newVolatile(m), mean, std)
	if view.Len() != m.Rows || view.Dim() != m.Cols {
		t.Fatalf("view shape %dx%d, want %dx%d", view.Len(), view.Dim(), m.Rows, m.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		row := view.Row(i)
		for j := 0; j < m.Cols; j++ {
			if row[j] != want.At(i, j) {
				t.Fatalf("view(%d,%d) = %v, want %v", i, j, row[j], want.At(i, j))
			}
		}
	}
	// Gather through the view must match too (and preserve caller order).
	idx := []int{42, 0, 299, 42, 7}
	dst := stats.NewMatrix(len(idx), m.Cols)
	view.(Gatherer).Gather(idx, dst)
	for j, i := range idx {
		for c := 0; c < m.Cols; c++ {
			if dst.At(j, c) != want.At(i, c) {
				t.Fatalf("gathered(%d,%d) = %v, want row %d", j, c, dst.At(j, c), i)
			}
		}
	}
}

// TestColumnStatsMatchesStats: streaming per-column statistics equal
// stats.Mean/stats.Std on the materialized columns bit for bit.
func TestColumnStatsMatchesStats(t *testing.T) {
	m := SyntheticPhaseBlobs(257, 4, 9)
	mean, std := ColumnStats(m)
	for j := 0; j < m.Cols; j++ {
		col := m.Column(j)
		if mean[j] != stats.Mean(col) {
			t.Errorf("col %d: mean %v != stats.Mean %v", j, mean[j], stats.Mean(col))
		}
		if std[j] != stats.Std(col) {
			t.Errorf("col %d: std %v != stats.Std %v", j, std[j], stats.Std(col))
		}
	}
	// Empty source: defined, all-zero statistics.
	mean, std = ColumnStats(stats.NewMatrix(0, 3))
	for j := range mean {
		if mean[j] != 0 || std[j] != 0 || math.IsNaN(mean[j]) {
			t.Fatalf("empty source stats not zero: %v %v", mean, std)
		}
	}
}
