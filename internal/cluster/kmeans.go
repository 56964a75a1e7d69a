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
// Every full-data pass of either engine is one bounded assignment pass
// (assignAll): each row keeps a lower bound on its distance to the
// runner-up centroid (Hamerly, "Making k-means even faster", SDM 2010),
// and a row whose own centroid is provably nearest skips the other
// k−1 centroids. The bounds change which rows are scanned, never an
// assignment or an SSE bit.
//
// Every engine runs on one resident row-major *stats.Matrix, which all
// sweep workers read concurrently and none writes. Memory is therefore
// the n×d×8 bytes of that matrix plus per-worker O(n) scratch (the
// assignment, and the 8n bytes of assignment-pass bounds); a
// store-backed caller (phases.AnalyzeJointStore) materializes the
// normalized store rows once for the whole sweep.
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

	"mica/internal/obs"
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
func degenerate(m *stats.Matrix, k int) (Result, bool) {
	if k <= 0 || m.Rows == 0 {
		return Result{K: k, Assign: make([]int, m.Rows), Centroids: stats.NewMatrix(0, m.Cols)}, true
	}
	return Result{}, false
}

// scratch holds the reusable buffers of k-means runs. A sweep keeps
// one scratch per worker and reuses it for every k that worker
// processes, so per-k allocation is the centroids (O(k·d)), not fresh
// O(n) working slices — the difference between 100k-row sweeps
// thrashing the allocator and not.
type scratch struct {
	assign []int     // n: current assignment
	counts []int     // k: cluster occupancy
	minD   []float64 // n: k-means++ shortest-distance table
	prev   []float64 // k*d: previous centroids (drift tracking)
	upd    []int     // k: minibatch per-center update counts
	sample []float64 // minibatch seeding sample rows
	lower  []float64 // n: assignment-pass bounds (see assignAll)
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

// Margins of the assignment pass's bounds. sqDist sums d non-negative
// terms in a fixed order, so a computed squared distance is within
// (d+2)·2^-53 of the true one, relatively; 1e-9 exceeds that for any d
// below 10^6, so every bound stays strictly below the computed
// distance it bounds.
const (
	// boundShrink scales a freshly stored runner-up bound.
	boundShrink = 1 - 1e-9
	// moveGrow scales the centroid move a bound decays by.
	moveGrow = 1 + 1e-9
	// minBound: a bound at or below it never prunes. Distances under
	// ~1e-157 square into subnormals, whose absolute rounding the
	// relative margins above do not cover.
	minBound = 1e-150
)

var (
	metAssignRows    = obs.Default().Counter("mica_cluster_assign_rows_total", "Row visits in full-data k-means assignment passes.")
	metAssignRescans = obs.Default().Counter("mica_cluster_assign_rescans_total", "Assignment-pass row visits that scanned every centroid.")
)

// sqDist2 is sqDist of x to a and to b at once: the two sums are
// independent, so interleaving them keeps the adder busy where one
// sum would wait on its own latency. Each still adds its terms in
// sqDist's order, so both results are bit-identical to sqDist's.
func sqDist2(x, a, b []float64) (float64, float64) {
	a, b = a[:len(x)], b[:len(x)]
	sa, sb := 0.0, 0.0
	for i, v := range x {
		da, db := v-a[i], v-b[i]
		sa += da * da
		sb += db * db
	}
	return sa, sb
}

// nearest returns the index of the centroid closest to row, its
// squared distance, and the squared distance to the runner-up (+Inf
// when there is none). Ties break to the lowest centroid index (strict
// less-than scan), the invariant every engine and assignAll share, and
// NaN distances never win. Distances are sqDist's bits, computed two
// centroids at a time (sqDist2).
//
// The scan compares IEEE-754 bit patterns, which order non-negative
// floats exactly as their values and put every NaN, of either sign,
// above +Inf. Integer compares compile to conditional moves, where
// float compares would be mispredicted branches.
func nearest(row []float64, cents *stats.Matrix) (best int, bestD, second float64) {
	bb, sb := math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(1))
	c := 0
	for ; c+1 < cents.Rows; c += 2 {
		d0, d1 := sqDist2(row, cents.Row(c), cents.Row(c+1))
		bb, sb, best = rank(math.Float64bits(d0), c, bb, sb, best)
		bb, sb, best = rank(math.Float64bits(d1), c+1, bb, sb, best)
	}
	if c < cents.Rows {
		bb, sb, best = rank(math.Float64bits(sqDist(row, cents.Row(c))), c, bb, sb, best)
	}
	return best, math.Float64frombits(bb), math.Float64frombits(sb)
}

// rank folds distance bits db of centroid c into a scan's best (bb,
// at index best) and runner-up (sb). Scanning c in increasing order
// with strict compares keeps ties at the lowest index.
func rank(db uint64, c int, bb, sb uint64, best int) (uint64, uint64, int) {
	if db < sb {
		sb = db
	}
	if db < bb {
		bb, sb, best = db, bb, c
	}
	return bb, sb, best
}

// assignAll is the bounded assignment pass behind every full-data pass
// (Lloyd iterations, the minibatch polish, the sweep's materialization
// of the chosen K). It assigns each row of m to its nearest centroid,
// fills counts, and returns the total SSE and whether any row changed
// cluster.
//
// lower holds one bound per row on the distance (not squared) from the
// row to every centroid but its own; 0 means none. The pass computes
// each row's exact squared distance to its own centroid, which the SSE
// needs anyway, and keeps the row there without reading the other k−1
// centroids when the distance is strictly below the bound. Every other
// row takes one nearest scan, which stores a fresh bound. A kept row's
// own centroid is strictly nearer than any other, and a scanned row is
// placed by nearest itself, so assignments, counts and SSE are
// bit-identical to a plain scan of every row. updateCentroids keeps the
// bounds valid as centroids move. NaN and ±Inf distances fail the
// strict comparison and are scanned.
func assignAll(m, cents *stats.Matrix, assign, counts []int, lower []float64) (float64, bool) {
	clear(counts)
	sse, changed, rescans := 0.0, false, 0
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		if lb := lower[i]; lb > minBound {
			a := assign[i]
			if da := sqDist(row, cents.Row(a)); math.Sqrt(da) < lb {
				counts[a]++
				sse += da
				continue
			}
		}
		rescans++
		c, dc, second := nearest(row, cents)
		if assign[i] != c {
			assign[i] = c
			changed = true
		}
		counts[c]++
		sse += dc
		// An overflowed runner-up (+Inf) proves nothing once centroids
		// move, so it stores no bound.
		if lower[i] = math.Sqrt(second) * boundShrink; lower[i] > math.MaxFloat64 {
			lower[i] = 0
		}
	}
	metAssignRows.Add(float64(m.Rows))
	metAssignRescans.Add(float64(rescans))
	return sse, changed
}

// updateCentroids recomputes cents as the mean of each cluster's
// members under assign, re-seeding any empty cluster at the point
// farthest from its current centroid (which also reassigns that
// point). It then keeps assignAll's bounds in lower valid: by the
// triangle inequality each decays by the largest centroid move, times
// moveGrow; a re-seed, or a NaN or infinite move, clears them all.
// prev is k·d scratch for the old centroids.
func updateCentroids(m, cents *stats.Matrix, assign, counts []int, lower, prev []float64) {
	k, d := cents.Rows, cents.Cols
	copy(prev, cents.Data)
	for c := 0; c < k; c++ {
		counts[c] = 0
		row := cents.Row(c)
		for j := 0; j < d; j++ {
			row[j] = 0
		}
	}
	for i := 0; i < m.Rows; i++ {
		c := assign[i]
		counts[c]++
		row := m.Row(i)
		crow := cents.Row(c)[:len(row)]
		for j, v := range row {
			crow[j] += v
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
	invalid := false
	for c := 0; c < k; c++ {
		if counts[c] != 0 {
			continue
		}
		// Re-seed an empty cluster at the point farthest from its
		// centroid.
		far, farD := 0, -1.0
		for i := 0; i < m.Rows; i++ {
			dist := sqDist(m.Row(i), cents.Row(assign[i]))
			if dist > farD {
				far, farD = i, dist
			}
		}
		copy(cents.Row(c), m.Row(far))
		assign[far] = c
		invalid = true
	}

	move := 0.0
	for c := 0; c < k && !invalid; c++ {
		mv := sqDist(prev[c*d:(c+1)*d], cents.Row(c))
		invalid = !(mv <= math.MaxFloat64) // NaN or +Inf
		move = max(move, mv)
	}
	if invalid {
		clear(lower)
		return
	}
	shift := math.Sqrt(move) * moveGrow
	for i := range lower {
		lower[i] -= shift
	}
}

// lloydFrom runs Lloyd iterations from the given seeded centroids, to
// convergence or maxIters centroid updates. The returned Result's
// Assign aliases sc.assign and is exactly the nearest-centroid
// assignment under the returned centroids; SSE and sc.counts come from
// that same final pass.
func lloydFrom(m, cents *stats.Matrix, sc *scratch) Result {
	n, k := m.Rows, cents.Rows
	assign := ints(&sc.assign, n)
	counts := ints(&sc.counts, k)
	lower := floats(&sc.lower, n)
	prev := floats(&sc.prev, k*m.Cols)
	clear(assign)
	clear(lower)
	for iter := 0; ; iter++ {
		sse, changed := assignAll(m, cents, assign, counts, lower)
		if (!changed && iter > 0) || iter == maxIters {
			return Result{K: k, Assign: assign, Centroids: cents, SSE: sse}
		}
		updateCentroids(m, cents, assign, counts, lower, prev)
	}
}

// seedPlusPlus picks k initial centroids with the k-means++ rule,
// reusing sc.minD for the shortest-distance table.
func seedPlusPlus(m *stats.Matrix, k int, rng *rand.Rand, sc *scratch) *stats.Matrix {
	n, d := m.Rows, m.Cols
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
func kmeansRun(m *stats.Matrix, k int, seed int64, eng engine, warm *WarmStart, sc *scratch) Result {
	if deg, ok := degenerate(m, k); ok {
		return deg
	}
	if k > m.Rows {
		k = m.Rows
	}
	if eng == engineAuto {
		if m.Rows >= miniBatchRows {
			eng = engineMiniBatch
		} else {
			eng = engineLloyd
		}
	}
	rng := rand.New(rand.NewSource(seed))
	if warm.usable(m.Cols) {
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
