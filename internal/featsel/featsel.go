// Package featsel implements the paper's two methods for identifying key
// microarchitecture-independent characteristics (Section V): correlation
// elimination and genetic-algorithm subset selection with fitness
// f = rho * (1 - n/N), where rho is the Pearson correlation between the
// benchmark-tuple distances in the full and the reduced workload space.
package featsel

import (
	"math"
	"sort"
	"sync"

	"mica/internal/ga"
	"mica/internal/stats"
)

// DistanceCache precomputes, for every unordered benchmark pair, the
// per-characteristic squared differences, so that the pairwise distances
// of any characteristic subset can be computed with one pass of adds.
// This is what makes GA fitness evaluation cheap.
type DistanceCache struct {
	nRows int
	nCols int
	// colSq[j] holds the squared difference of characteristic j for
	// every pair, in canonical pair order.
	colSq [][]float64
	// full holds the distances using all characteristics.
	full []float64
	// fullDev holds full[p] - mean(full), and fullSS the sum of their
	// squares: the x-side terms of Pearson's r, which every Rho shares.
	fullDev []float64
	fullSS  float64
	// buf recycles Rho's per-call subset-distance buffers.
	buf sync.Pool
}

// NewDistanceCache builds the cache from a (normalized) benchmark-by-
// characteristic matrix.
func NewDistanceCache(m *stats.Matrix) *DistanceCache {
	pairs := stats.NumPairs(m.Rows)
	c := &DistanceCache{nRows: m.Rows, nCols: m.Cols}
	c.colSq = make([][]float64, m.Cols)
	for j := range c.colSq {
		c.colSq[j] = make([]float64, pairs)
	}
	p := 0
	for i := 0; i < m.Rows; i++ {
		for k := i + 1; k < m.Rows; k++ {
			for j := 0; j < m.Cols; j++ {
				d := m.At(i, j) - m.At(k, j)
				c.colSq[j][p] = d * d
			}
			p++
		}
	}
	c.full = c.distancesMask(nil)
	mx := stats.Mean(c.full)
	c.fullDev = make([]float64, len(c.full))
	for p, x := range c.full {
		dx := x - mx
		c.fullDev[p] = dx
		c.fullSS += dx * dx
	}
	return c
}

// distancesMask computes pair distances over the selected columns; nil
// selects all columns.
func (c *DistanceCache) distancesMask(mask []bool) []float64 {
	pairs := len(c.full)
	if pairs == 0 {
		pairs = stats.NumPairs(c.nRows)
	}
	sum := make([]float64, pairs)
	for j := 0; j < c.nCols; j++ {
		if mask != nil && !mask[j] {
			continue
		}
		col := c.colSq[j]
		for p := range sum {
			sum[p] += col[p]
		}
	}
	for p := range sum {
		sum[p] = math.Sqrt(sum[p])
	}
	return sum
}

// FullDistances returns the pairwise distances in the full space.
func (c *DistanceCache) FullDistances() []float64 {
	out := make([]float64, len(c.full))
	copy(out, c.full)
	return out
}

// SubsetDistances returns the pairwise distances using only the listed
// characteristics.
func (c *DistanceCache) SubsetDistances(cols []int) []float64 {
	return c.distancesMask(c.mask(cols))
}

// mask turns a column list into a column mask.
func (c *DistanceCache) mask(cols []int) []bool {
	mask := make([]bool, c.nCols)
	for _, j := range cols {
		mask[j] = true
	}
	return mask
}

// rhoBlock is how many pairs Rho accumulates at a time: the block's
// partial sums stay in L1 while every selected column streams past.
const rhoBlock = 512

// Rho returns the Pearson correlation between the full-space distances
// and the distances in the subset space selected by mask — the rho of the
// GA fitness function and of Figure 5. It is safe for concurrent use.
//
// Rho equals stats.Pearson(full, subset distances) bit for bit: every
// accumulator sees the same operands in the same order. Each pair's
// squared differences are summed in column order (four columns per
// pass, added left to right), the subset mean is summed in pair order,
// and the x-side deviations were computed once by NewDistanceCache.
func (c *DistanceCache) Rho(mask []bool) float64 {
	pairs := len(c.full)
	if pairs == 0 {
		return 0
	}
	cols := make([][]float64, 0, 64) // a constant capacity stays on the stack
	for j, col := range c.colSq {
		if mask == nil || mask[j] {
			cols = append(cols, col)
		}
	}
	bp, _ := c.buf.Get().(*[]float64)
	if bp == nil {
		b := make([]float64, pairs)
		bp = &b
	}
	defer c.buf.Put(bp)
	y := *bp

	sy := 0.0
	for lo := 0; lo < pairs; lo += rhoBlock {
		hi := min(lo+rhoBlock, pairs)
		acc := y[lo:hi]
		clear(acc)
		j := 0
		for ; j+4 <= len(cols); j += 4 {
			a, b, cc, d := cols[j][lo:hi], cols[j+1][lo:hi], cols[j+2][lo:hi], cols[j+3][lo:hi]
			for p := range acc {
				acc[p] = acc[p] + a[p] + b[p] + cc[p] + d[p]
			}
		}
		for ; j < len(cols); j++ {
			a := cols[j][lo:hi]
			for p := range acc {
				acc[p] += a[p]
			}
		}
		for p := range acc {
			acc[p] = math.Sqrt(acc[p])
			sy += acc[p]
		}
	}
	my := sy / float64(pairs)

	var sxy, syy float64
	for p, dx := range c.fullDev {
		dy := y[p] - my
		sxy += dx * dy
		syy += dy * dy
	}
	if c.fullSS == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(c.fullSS*syy)
}

// RhoSubset is Rho for an explicit column list.
func (c *DistanceCache) RhoSubset(cols []int) float64 {
	return c.Rho(c.mask(cols))
}

// Cols returns the number of characteristics in the cache.
func (c *DistanceCache) Cols() int { return c.nCols }

// CEResult records the outcome of correlation elimination.
type CEResult struct {
	// RemovalOrder lists characteristic indices in the order they were
	// eliminated (most-correlated first).
	RemovalOrder []int
}

// Retained returns the k characteristics that survive after eliminating
// all but k, in ascending index order.
func (r CEResult) Retained(k int) []int {
	n := len(r.RemovalOrder) + 1 // total characteristics
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	removed := make(map[int]bool, n-k)
	for _, j := range r.RemovalOrder[:n-k] {
		removed[j] = true
	}
	out := make([]int, 0, k)
	for j := 0; j < n; j++ {
		if !removed[j] {
			out = append(out, j)
		}
	}
	return out
}

// CorrelationElimination implements Section V-A: repeatedly compute, for
// each remaining characteristic, the average absolute Pearson correlation
// with all other remaining characteristics, and remove the characteristic
// with the highest average (it carries the least additional information).
// The process runs until a single characteristic remains; callers pick
// any intermediate subset size via Retained.
func CorrelationElimination(m *stats.Matrix) CEResult {
	n := m.Cols
	cols := make([][]float64, n)
	for j := 0; j < n; j++ {
		cols[j] = m.Column(j)
	}
	// Pairwise correlation table, computed once.
	corr := make([][]float64, n)
	for a := range corr {
		corr[a] = make([]float64, n)
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			r := math.Abs(stats.Pearson(cols[a], cols[b]))
			corr[a][b], corr[b][a] = r, r
		}
	}

	alive := make([]bool, n)
	for j := range alive {
		alive[j] = true
	}
	var order []int
	for remaining := n; remaining > 1; remaining-- {
		worst, worstAvg := -1, -1.0
		for a := 0; a < n; a++ {
			if !alive[a] {
				continue
			}
			sum := 0.0
			for b := 0; b < n; b++ {
				if b != a && alive[b] {
					sum += corr[a][b]
				}
			}
			avg := sum / float64(remaining-1)
			if avg > worstAvg {
				worst, worstAvg = a, avg
			}
		}
		alive[worst] = false
		order = append(order, worst)
	}
	return CEResult{RemovalOrder: order}
}

// GAConfig configures GA-based selection; it wraps ga.Config minus the
// gene count (implied by the data).
type GAConfig struct {
	PopSize          int
	MaxGenerations   int
	StallGenerations int
	Seed             int64
}

// GAResult is the outcome of GA-based key-characteristic selection.
type GAResult struct {
	// Selected lists the retained characteristic indices, ascending.
	Selected []int
	// Rho is the distance correlation of the selected subset versus the
	// full space.
	Rho float64
	// Fitness is rho * (1 - n/N).
	Fitness float64
	// Generations is how many generations the GA ran.
	Generations int
}

// GASelect runs the Section V-B genetic algorithm over the
// characteristics of a distance cache (built from the normalized
// matrix) and returns the best subset found.
func GASelect(cache *DistanceCache, cfg GAConfig) GAResult {
	n := cache.Cols()
	fitness := func(genes []bool) float64 {
		k := 0
		for _, g := range genes {
			if g {
				k++
			}
		}
		if k == 0 {
			return -1
		}
		rho := cache.Rho(genes)
		return rho * (1 - float64(k)/float64(n))
	}
	res := ga.Run(ga.Config{
		Genes:            n,
		PopSize:          cfg.PopSize,
		MaxGenerations:   cfg.MaxGenerations,
		StallGenerations: cfg.StallGenerations,
		Seed:             cfg.Seed,
	}, fitness)

	var sel []int
	for j, g := range res.Best.Genes {
		if g {
			sel = append(sel, j)
		}
	}
	sort.Ints(sel)
	return GAResult{
		Selected:    sel,
		Rho:         cache.RhoSubset(sel),
		Fitness:     res.Best.Fitness,
		Generations: res.Generations,
	}
}

// CECurve evaluates the correlation-elimination method on the
// (normalized) matrix m at every retained subset size, returning rho for
// sizes 1..N in index order (the data of Figure 5's CE series). cache
// must have been built from m.
func CECurve(cache *DistanceCache, m *stats.Matrix) []float64 {
	ce := CorrelationElimination(m)
	out := make([]float64, m.Cols)
	for k := 1; k <= m.Cols; k++ {
		out[k-1] = cache.RhoSubset(ce.Retained(k))
	}
	return out
}
