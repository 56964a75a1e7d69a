// Package stats provides the statistical machinery of the paper's
// workload-space analysis: matrices of benchmark characteristics, z-score
// normalization, Pearson correlation, and Euclidean distances between
// benchmark tuples.
package stats

import "fmt"

// Matrix is a dense row-major matrix; rows are benchmarks, columns are
// characteristics.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("stats: bad matrix shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices, which must all have equal
// length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("stats: row %d has %d columns, want %d", i, len(r), m.Cols))
		}
		copy(m.Data[i*m.Cols:], r)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i (not a copy).
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Column returns a copy of column j.
func (m *Matrix) Column(j int) []float64 {
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = m.At(i, j)
	}
	return out
}

// SelectColumns returns a new matrix containing only the listed columns,
// in the given order.
func (m *Matrix) SelectColumns(cols []int) *Matrix {
	out := NewMatrix(m.Rows, len(cols))
	for i := 0; i < m.Rows; i++ {
		for k, j := range cols {
			out.Set(i, k, m.At(i, j))
		}
	}
	return out
}
