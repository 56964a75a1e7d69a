// Package cluster implements the k-means clustering and Bayesian
// Information Criterion model selection the paper uses for Figure 6 —
// k-means for K in 1..70, keeping the smallest K whose BIC score is
// within 90% of the maximum — scaled up for interval-phase matrices
// with 100k+ rows.
//
// Two Result-compatible engines are available:
//
//   - Lloyd iterations with k-means++ seeding (KMeans), the exact
//     reference engine.
//   - Sculley-style sampled minibatch updates with center-drift
//     convergence and a short full-data polish, for matrices where
//     full Lloyd passes dominate phase-analysis wall time.
//
// SelectK and SelectKRows sweep K in parallel over the fixed worker
// pool (internal/pool), choosing the engine by row count (exact below
// 8192 rows, minibatch at or above) and reusing per-k scratch buffers
// so a sweep's steady-state allocation is the O(k·d) centroids per k,
// not fresh O(n) slices per run.
//
// Seeding scheme: every per-k run inside a sweep uses an independent
// seed derived from the sweep seed by a splitmix64 finalizer
// (deriveSeed), not seed+k. Consecutive integer seeds fed to
// math/rand sources produce correlated first draws, which used to make
// adjacent k runs start from near-identical k-means++ centroid
// prefixes and bias the BIC curve; the finalizer decorrelates them
// while keeping the sweep fully deterministic in (seed, k).
package cluster

import (
	"math"
	"math/rand"

	"mica/internal/stats"
)

// maxIters bounds Lloyd/minibatch iteration counts.
const maxIters = 100

// Result is one k-means clustering outcome.
type Result struct {
	K int
	// Assign maps each row to its cluster id in [0, K).
	Assign []int
	// Centroids holds the K cluster centers.
	Centroids *stats.Matrix
	// SSE is the total within-cluster sum of squared distances.
	SSE float64
}

// KMeans clusters the rows of m into k clusters using k-means++ seeding
// and Lloyd iterations. It is deterministic for a given seed.
func KMeans(m *stats.Matrix, k int, seed int64) Result {
	return ownAssign(kmeansRun(m, k, seed, engineLloyd, nil, newScratch()))
}

// KMeansNaiveSeed is KMeans with first-K-rows seeding instead of
// k-means++; kept for the seeding ablation benchmark.
func KMeansNaiveSeed(m *stats.Matrix, k int, seed int64) Result {
	sc := newScratch()
	n, d := m.Rows, m.Cols
	if deg, ok := degenerate(m, k); ok {
		return deg
	}
	if k > n {
		k = n
	}
	cents := stats.NewMatrix(k, d)
	for c := 0; c < k; c++ {
		copy(cents.Row(c), m.Row(c))
	}
	return ownAssign(lloydFrom(m, cents, sc))
}

// ownAssign gives a Result returned from a scratch-backed engine its
// own Assign storage (engines alias the scratch buffer so sweeps can
// recycle it across k values).
func ownAssign(r Result) Result {
	r.Assign = append([]int(nil), r.Assign...)
	return r
}

// degenerate handles the k <= 0 / empty-matrix edge cases shared by
// every engine.
func degenerate(m Rows, k int) (Result, bool) {
	if k <= 0 || m.Len() == 0 {
		return Result{K: k, Assign: make([]int, m.Len()), Centroids: stats.NewMatrix(0, m.Dim())}, true
	}
	return Result{}, false
}

// scratch holds the reusable buffers of k-means runs. A sweep keeps
// one scratch per worker and reuses it for every k that worker
// processes, so per-k allocation is the centroids (O(k·d)), not fresh
// O(n) working slices — the difference between 100k-row sweeps
// thrashing the allocator and not.
type scratch struct {
	assign    []int     // n: current assignment
	counts    []int     // k: cluster occupancy
	minD      []float64 // n: k-means++ shortest-distance table
	prev      []float64 // k*d: previous centroids (drift tracking)
	batch     []int     // minibatch sample indices
	upd       []int     // k: minibatch per-center update counts
	sample    []float64 // minibatch seeding sample rows
	sampleIdx []int     // minibatch seeding sample row indices
	gat       []float64 // batch*d: gathered minibatch rows
}

func newScratch() *scratch { return &scratch{} }

// ints returns a length-n int slice backed by *buf, growing it as
// needed and reusing its capacity otherwise.
func ints(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

func floats(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// nearest returns the index of the centroid closest to row, and the
// squared distance. Ties break to the lowest centroid index (strict
// less-than scan), the invariant every engine and assignAll share.
func nearest(row []float64, cents *stats.Matrix) (int, float64) {
	best, bestD := 0, math.Inf(1)
	for c := 0; c < cents.Rows; c++ {
		if d := sqDist(row, cents.Row(c)); d < bestD {
			best, bestD = c, d
		}
	}
	return best, bestD
}

// assignAll assigns every row of m to its nearest centroid, filling
// assign and counts, and returns the total SSE. It is the single
// shared assignment routine, so an assignment re-derived from stored
// centroids (Selection materialization) is bit-identical to the
// engine's own final pass.
func assignAll(m Rows, cents *stats.Matrix, assign []int, counts []int) float64 {
	for c := range counts {
		counts[c] = 0
	}
	sse := 0.0
	for i := 0; i < m.Len(); i++ {
		c, d := nearest(m.Row(i), cents)
		assign[i] = c
		counts[c]++
		sse += d
	}
	return sse
}

// updateCentroids recomputes cents as the mean of each cluster's
// members under assign, re-seeding any empty cluster at the point
// farthest from its current centroid (which also reassigns that
// point).
func updateCentroids(m Rows, cents *stats.Matrix, assign, counts []int) {
	k, d := cents.Rows, cents.Cols
	for c := 0; c < k; c++ {
		counts[c] = 0
		row := cents.Row(c)
		for j := 0; j < d; j++ {
			row[j] = 0
		}
	}
	for i := 0; i < m.Len(); i++ {
		c := assign[i]
		counts[c]++
		row, crow := m.Row(i), cents.Row(c)
		for j := 0; j < d; j++ {
			crow[j] += row[j]
		}
	}
	// Normalize every non-empty centroid first: the empty-cluster
	// reseed below measures point-to-centroid distances, which must be
	// against true means, not the raw sums still sitting in
	// later-indexed rows mid-loop (a single interleaved pass would make
	// the farthest-point scan see a populated cluster's ~count-times
	// oversized sum and deterministically raid the largest
	// later-indexed cluster).
	for c := 0; c < k; c++ {
		if counts[c] == 0 {
			continue
		}
		crow := cents.Row(c)
		inv := 1 / float64(counts[c])
		for j := 0; j < d; j++ {
			crow[j] *= inv
		}
	}
	for c := 0; c < k; c++ {
		if counts[c] != 0 {
			continue
		}
		// Re-seed an empty cluster at the point farthest from its
		// centroid.
		far, farD := 0, -1.0
		for i := 0; i < m.Len(); i++ {
			dist := sqDist(m.Row(i), cents.Row(assign[i]))
			if dist > farD {
				far, farD = i, dist
			}
		}
		copy(cents.Row(c), m.Row(far))
		assign[far] = c
	}
}

// lloydFrom runs Lloyd iterations from the given seeded centroids. The
// returned Result's Assign aliases sc.assign and is consistent with
// the returned centroids: Assign is exactly assignAll(cents) and SSE
// and sc.counts are computed from that assignment.
func lloydFrom(m Rows, cents *stats.Matrix, sc *scratch) Result {
	n := m.Len()
	k := cents.Rows
	assign := ints(&sc.assign, n)
	counts := ints(&sc.counts, k)
	for i := range assign {
		assign[i] = 0
	}

	converged := false
	for iter := 0; iter < maxIters; iter++ {
		changed := false
		for i := 0; i < n; i++ {
			best, _ := nearest(m.Row(i), cents)
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			converged = true
			break
		}
		updateCentroids(m, cents, assign, counts)
	}

	var sse float64
	if converged {
		// Assign already equals assignAll(cents); compute SSE and counts
		// in one O(n·d) pass instead of repeating the O(n·k·d) scan.
		for c := range counts {
			counts[c] = 0
		}
		for i := 0; i < n; i++ {
			counts[assign[i]]++
			sse += sqDist(m.Row(i), cents.Row(assign[i]))
		}
	} else {
		// Iteration cap hit: the last centroid update ran after the last
		// assignment pass, so re-derive a consistent assignment.
		sse = assignAll(m, cents, assign, counts)
	}
	return Result{K: k, Assign: assign, Centroids: cents, SSE: sse}
}

// seedPlusPlus picks k initial centroids with the k-means++ rule,
// reusing sc.minD for the shortest-distance table.
func seedPlusPlus(m Rows, k int, rng *rand.Rand, sc *scratch) *stats.Matrix {
	n, d := m.Len(), m.Dim()
	cents := stats.NewMatrix(k, d)
	first := rng.Intn(n)
	copy(cents.Row(0), m.Row(first))

	minD := floats(&sc.minD, n)
	for i := range minD {
		minD[i] = sqDist(m.Row(i), cents.Row(0))
	}
	for c := 1; c < k; c++ {
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
	return cents
}

// kmeansRun dispatches one clustering run to an engine, seeded from
// warm when it is usable and by k-means++ otherwise. The returned
// Result's Assign aliases sc.assign; callers that retain it across
// runs must copy (ownAssign). sc.counts holds the per-cluster
// occupancy of the returned assignment.
func kmeansRun(m Rows, k int, seed int64, eng engine, warm *WarmStart, sc *scratch) Result {
	if deg, ok := degenerate(m, k); ok {
		return deg
	}
	if k > m.Len() {
		k = m.Len()
	}
	if eng == engineAuto {
		if m.Len() >= miniBatchRows {
			eng = engineMiniBatch
		} else {
			eng = engineLloyd
		}
	}
	rng := rand.New(rand.NewSource(seed))
	if warm.usable(m.Dim()) {
		seeds := warmSeeds(m, k, warm, rng, sc)
		if eng == engineMiniBatch {
			return miniBatchFrom(m, seeds, rng, sc)
		}
		return lloydFrom(m, seeds, sc)
	}
	if eng == engineMiniBatch {
		return miniBatchRun(m, k, rng, sc)
	}
	return lloydFrom(m, seedPlusPlus(m, k, rng, sc), sc)
}

// BIC scores a clustering with the Bayesian Information Criterion under
// the identical-spherical-Gaussian model of Pelleg & Moore (the scoring
// SimPoint adopted and the paper cites via [18]). Larger is better.
func BIC(m *stats.Matrix, res Result) float64 {
	counts := make([]int, res.K)
	for _, c := range res.Assign {
		counts[c]++
	}
	return bicStats(m.Rows, m.Cols, res.K, res.SSE, counts)
}

// bicStats is BIC computed from sufficient statistics (row count,
// dimensionality, SSE and per-cluster occupancy), so a sweep can score
// a run without retaining its O(n) assignment.
func bicStats(n, d, k int, sse float64, counts []int) float64 {
	if n <= k {
		return math.Inf(-1)
	}
	variance := sse / float64(d*(n-k))
	if variance <= 0 {
		variance = 1e-12
	}
	ll := 0.0
	for _, rn := range counts {
		if rn == 0 {
			continue
		}
		r := float64(rn)
		ll += r*math.Log(r) -
			r*math.Log(float64(n)) -
			r*float64(d)/2*math.Log(2*math.Pi*variance) -
			(r-1)*float64(d)/2
	}
	params := float64(k-1) + float64(k*d) + 1
	return ll - params/2*math.Log(float64(n))
}

// deriveSeed maps (sweep seed, k) to an independent per-run seed with
// a splitmix64 finalizer. See the package comment for why seed+k is
// not used.
func deriveSeed(seed int64, k int) int64 {
	z := uint64(seed) + uint64(k)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}
