package cluster

import (
	"math/rand"

	"mica/internal/stats"
)

const (
	// batchSize is the minibatch sample size per iteration.
	batchSize = 1024
	// miniBatchRows is the row count at which engineAuto switches from
	// exact Lloyd to minibatch inside a sweep.
	miniBatchRows = 8192
	// polishIters caps the full-data Lloyd refinement rounds run after
	// the minibatch phase: they pin down centroid means, repair any
	// cluster the sampling left empty, and leave the assignment
	// consistent with the centroids. Polish stops early once the
	// assignment is stable, so it usually costs 2-4 passes — minibatch
	// centers start near a Lloyd fixed point.
	polishIters = 10
	// miniBatchIters caps the sampled-update iterations per attempt;
	// quality past this point comes from the full-data polish, which
	// converges from near-fixed-point centers in a few passes.
	miniBatchIters = 50
	// miniBatchMinIters is the floor before drift-based early exit.
	miniBatchMinIters = 10
	// miniBatchRestarts is the number of independent seeding + minibatch
	// attempts per run; the attempt with the lowest sample SSE is
	// polished. Restarts are nearly free next to a single full-data
	// pass and squeeze out most of the local-optimum variance that
	// separates one sampled run from exact Lloyd — with several
	// attempts, the polished winner usually matches or beats a single
	// exact run's basin.
	miniBatchRestarts = 3
)

// miniBatchRun is the minibatch engine (Sculley, WWW 2010): k-means++
// seeding on a sample, then per-center streaming-mean updates from
// random batches until the centers stop drifting, then a short
// full-data polish. It trades a bounded SSE gap (a few percent versus
// exact Lloyd) for touching only a fraction of the rows per iteration
// — the enabling engine for BIC sweeps over 100k+-interval phase
// matrices. Small inputs (where a full Lloyd pass is already cheap, or
// where k approaches n and sampling would starve clusters) fall back
// to the exact engine. rng is already seeded and sc provides the
// reusable buffers. Assign in the returned Result aliases sc.assign.
//
// The seeding sample is copied out of m into scratch, since seeding and
// restart scoring run on it as a matrix of its own; minibatch updates
// read their rows straight from m in draw order.
func miniBatchRun(m *stats.Matrix, k int, rng *rand.Rand, sc *scratch) Result {
	n, d := m.Rows, m.Cols
	batch := batchSize
	if n <= 4*batch || 8*k >= n {
		// Exact fallback: the batch would cover most of the data anyway,
		// or clusters are small enough that sampling could starve them.
		return lloydFrom(m, seedPlusPlus(m, k, rng, sc), sc)
	}

	// One shared random sample serves k-means++ seeding (full-data
	// seeding costs k passes over all n rows, exactly the cost
	// minibatch exists to avoid) and restart scoring.
	sampleN := 2 * batch
	if sampleN < 8*k {
		sampleN = 8 * k
	}
	if sampleN > n {
		sampleN = n
	}
	sampleData := floats(&sc.sample, sampleN*d)
	sample := &stats.Matrix{Rows: sampleN, Cols: d, Data: sampleData}
	for j := 0; j < sampleN; j++ {
		copy(sample.Row(j), m.Row(rng.Intn(n)))
	}
	scale := 0.0
	for _, v := range sampleData {
		scale += v * v
	}
	// Drift tolerance scales with the data's mean squared row norm, so
	// convergence detection behaves the same for normalized and raw
	// characteristic spaces.
	tol := 1e-6 * (1 + scale/float64(sampleN)) * float64(k)

	var cents *stats.Matrix
	bestScore := 0.0
	for attempt := 0; attempt < miniBatchRestarts; attempt++ {
		try := seedPlusPlus(sample, k, rng, sc)
		miniBatchRefine(m, try, tol, rng, sc)
		// Score the attempt on the sample (a full-data pass would cost
		// what the restarts are meant to stay below).
		score := 0.0
		for i := 0; i < sampleN; i++ {
			_, dd := nearest(sample.Row(i), try)
			score += dd
		}
		if cents == nil || score < bestScore {
			cents, bestScore = try, score
		}
	}

	// Full-data polish of the winning attempt: Lloyd rounds until the
	// assignment stabilizes (or the cap), repairing empty clusters,
	// settling centroid means, and ending with an assignment consistent
	// with the centroids.
	return miniBatchPolish(m, cents, sc)
}

// miniBatchPolish runs the bounded full-data Lloyd tail shared by the
// restart path and the warm path.
func miniBatchPolish(m, cents *stats.Matrix, sc *scratch) Result {
	n, k := m.Rows, cents.Rows
	assign := ints(&sc.assign, n)
	counts := ints(&sc.counts, k)
	var sse, prevSSE float64
	for p := 0; ; p++ {
		sse = assignAll(m, cents, assign, counts)
		if p >= polishIters || (p > 0 && sse >= prevSSE) {
			break
		}
		prevSSE = sse
		updateCentroids(m, cents, assign, counts)
	}
	return Result{K: k, Assign: assign, Centroids: cents, SSE: sse}
}

// miniBatchFrom is the warm-start variant of miniBatchRun: the seed
// centroids are already data-informed (a previous run's centers), so
// the k-means++ restarts are skipped in favor of one sampled
// refinement pass from the seeds, followed by the standard full-data
// polish. Small inputs fall back to exact refinement, mirroring
// miniBatchRun's fallback. cents is refined in place (callers pass a
// private copy).
func miniBatchFrom(m, cents *stats.Matrix, rng *rand.Rand, sc *scratch) Result {
	n, k := m.Rows, cents.Rows
	batch := batchSize
	if n <= 4*batch || 8*k >= n {
		return lloydFrom(m, cents, sc)
	}

	// Drift tolerance from a sample's mean squared row norm, as in
	// miniBatchRun.
	sampleN := 2 * batch
	if sampleN > n {
		sampleN = n
	}
	scale := 0.0
	for j := 0; j < sampleN; j++ {
		for _, v := range m.Row(rng.Intn(n)) {
			scale += v * v
		}
	}
	tol := 1e-6 * (1 + scale/float64(sampleN)) * float64(k)
	miniBatchRefine(m, cents, tol, rng, sc)
	return miniBatchPolish(m, cents, sc)
}

// miniBatchRefine runs the sampled phase of both minibatch entry
// points: per-center streaming-mean updates of cents from random
// batches of m, until the centers drift by at most tol (after
// miniBatchMinIters iterations) or miniBatchIters is reached.
func miniBatchRefine(m, cents *stats.Matrix, tol float64, rng *rand.Rand, sc *scratch) {
	n, d, k := m.Rows, m.Cols, cents.Rows
	upd := ints(&sc.upd, k)
	for c := range upd {
		upd[c] = 0
	}
	prev := floats(&sc.prev, k*d)
	for iter := 0; iter < miniBatchIters; iter++ {
		copy(prev, cents.Data)
		for b := 0; b < batchSize; b++ {
			row := m.Row(rng.Intn(n))
			c, _ := nearest(row, cents)
			upd[c]++
			eta := 1 / float64(upd[c])
			crow := cents.Row(c)
			for j := 0; j < d; j++ {
				crow[j] += eta * (row[j] - crow[j])
			}
		}
		drift := 0.0
		for c := 0; c < k; c++ {
			drift += sqDist(prev[c*d:(c+1)*d], cents.Row(c))
		}
		if drift <= tol && iter+1 >= miniBatchMinIters {
			break
		}
	}
}
