package cluster

import (
	"math/rand"
	"sort"

	"mica/internal/stats"
)

// WarmStart carries centroids from a previous clustering so a re-run
// over slightly-changed data can refine instead of reseeding from
// scratch. Engines treat warm centroids as the initialization and
// still iterate to convergence, so a warm run on unchanged data lands
// on (at least) as good a local optimum as the seeds themselves;
// SelectK sweeps adapt the seed set to each swept k (truncating by
// occupancy, extending by the k-means++ rule).
//
// Callers own the fallback decision: warm-starting is only a seeding
// hint, so when the data has drifted too far from what produced the
// centroids (the phases layer checks normalization-statistic drift),
// drop the WarmStart and let the sweep reseed fresh.
type WarmStart struct {
	// Centroids are the previous run's cluster centers, in the same
	// (normalized) space as the rows being clustered. Required.
	Centroids *stats.Matrix
	// Counts optionally holds the previous per-cluster occupancy,
	// index-aligned with Centroids rows. When a sweep needs fewer
	// clusters than provided, the most populated ones are kept; without
	// Counts, the first rows win.
	Counts []int
}

// usable reports whether w can seed a clustering of d-dimensional rows.
func (w *WarmStart) usable(d int) bool {
	return w != nil && w.Centroids != nil && w.Centroids.Rows > 0 && w.Centroids.Cols == d
}

// warmSeeds builds a k-row seed matrix from warm centroids: an exact
// copy when k matches, the k most-populated centroids when fewer are
// needed, and a k-means++ extension (seeded against the existing
// centers, so new seeds land in uncovered regions) when more are.
// The returned matrix is freshly allocated — engines mutate their
// seed matrix in place, and the caller's warm state must survive the
// sweep's many runs.
func warmSeeds(m *stats.Matrix, k int, w *WarmStart, rng *rand.Rand, sc *scratch) *stats.Matrix {
	prev := w.Centroids
	d := prev.Cols
	cents := stats.NewMatrix(k, d)
	switch {
	case k == prev.Rows:
		copy(cents.Data, prev.Data)
	case k < prev.Rows:
		order := make([]int, prev.Rows)
		for i := range order {
			order[i] = i
		}
		if len(w.Counts) == prev.Rows {
			sort.SliceStable(order, func(a, b int) bool {
				return w.Counts[order[a]] > w.Counts[order[b]]
			})
		}
		for c := 0; c < k; c++ {
			copy(cents.Row(c), prev.Row(order[c]))
		}
	default: // k > prev.Rows: keep all, extend with the k-means++ rule
		copy(cents.Data[:prev.Rows*d], prev.Data)
		n := m.Rows
		minD := floats(&sc.minD, n)
		for i := range minD {
			minD[i] = sqDist(m.Row(i), cents.Row(0))
			for c := 1; c < prev.Rows; c++ {
				if dd := sqDist(m.Row(i), cents.Row(c)); dd < minD[i] {
					minD[i] = dd
				}
			}
		}
		for c := prev.Rows; c < k; c++ {
			total := 0.0
			for _, dd := range minD {
				total += dd
			}
			var pick int
			if total == 0 {
				pick = rng.Intn(n)
			} else {
				r := rng.Float64() * total
				acc := 0.0
				for i, dd := range minD {
					acc += dd
					if acc >= r {
						pick = i
						break
					}
				}
			}
			copy(cents.Row(c), m.Row(pick))
			for i := range minD {
				if dd := sqDist(m.Row(i), cents.Row(c)); dd < minD[i] {
					minD[i] = dd
				}
			}
		}
	}
	return cents
}
