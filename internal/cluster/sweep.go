package cluster

import (
	"context"
	"math"

	"mica/internal/obs"
	"mica/internal/pool"
	"mica/internal/stats"
)

// metRowsClustered counts rows entering a k-sweep (per sweep, not per
// swept k).
var metRowsClustered = obs.Default().Counter("mica_cluster_rows_total", "Rows entering BIC k-sweeps.")

// bicFrac is the SimPoint "90% of max BIC" rule the paper uses: a
// sweep keeps the smallest K whose score reaches this fraction of the
// way from the lowest to the highest score.
const bicFrac = 0.9

// engine selects the k-means engine a sweep runs per k. Sweeps always
// run engineAuto; in-package tests force the other two.
type engine int

const (
	// engineAuto uses exact Lloyd below miniBatchRows rows and
	// minibatch at or above it — exact where exact is cheap, sampled
	// where full passes dominate.
	engineAuto engine = iota
	// engineLloyd forces the exact reference engine.
	engineLloyd
	// engineMiniBatch forces sampled minibatch updates (with the
	// documented exact fallback on tiny inputs).
	engineMiniBatch
)

// SweepOptions parameterize SelectKRows.
type SweepOptions struct {
	// Workers bounds sweep parallelism over the fixed worker pool
	// (0 = GOMAXPROCS). Each worker owns one scratch buffer reused
	// across every k it processes.
	Workers int
	// Warm optionally seeds every swept k from a previous clustering's
	// centroids instead of k-means++ (see WarmStart). Engines still
	// iterate to convergence; ignored when the centroid dimensionality
	// does not match the rows.
	Warm *WarmStart
}

// Selection holds the outcome of BIC-based K selection.
type Selection struct {
	// Best is the clustering at the chosen K.
	Best Result
	// Scores maps K (1-based index position K-1) to its BIC score.
	Scores []float64
	// SSEs maps K (same indexing) to that clustering's final SSE —
	// the quantity engine-quality comparisons (exact vs minibatch) are
	// made on.
	SSEs []float64
	// MaxScore is the maximum BIC over the swept K values.
	MaxScore float64
}

// SelectK sweeps K in [1, maxK], scores each clustering with BIC, and
// returns the smallest K whose score reaches 90% of the way from the
// lowest to the highest score across the sweep — the SimPoint "90% of
// max BIC" rule the paper uses, which operates on the score range so
// it is well defined for negative log-likelihood-based scores.
//
// The sweep runs in parallel over the fixed worker pool, with exact
// Lloyd below 8192 rows and minibatch at or above. Results are
// deterministic in (m, maxK, seed): per-k runs use independent seeds
// derived from seed (see the package comment), so neither the worker
// count nor scheduling order can change any outcome. A per-k panic is
// re-raised after every other k has finished; SelectKRows returns it
// as an error instead.
func SelectK(m *stats.Matrix, maxK int, seed int64) Selection {
	sel, err := selectK(context.Background(), func() Rows { return m }, maxK, seed, SweepOptions{}, engineAuto)
	if err != nil {
		panic(err)
	}
	return sel
}

// SelectKRows is SelectK over an arbitrary row source — the entry
// point of store-backed clustering, where rows are streamed
// shard-by-shard off disk instead of materialized in one flat matrix —
// with cancellation, error reporting and the options of opt. open is
// called once per sweep worker (plus once for the sizing and final
// materialization passes), so sources with internal caches — a shard
// reader — are never shared between goroutines. Results are
// bit-identical to SelectK on the materialized matrix: the engines run
// the same floating-point operations in the same order, only the row
// fetches differ.
//
// The sweep stops dispatching per-k runs when ctx is cancelled
// (in-flight runs drain). On any error (cancellation, per-k panic) the
// returned Selection is zero; per-k errors carry the item (k-1) and
// worker via pool.ItemError.
func SelectKRows(ctx context.Context, open func() Rows, maxK int, seed int64, opt SweepOptions) (Selection, error) {
	return selectK(ctx, open, maxK, seed, opt, engineAuto)
}

// selectK is the sweep behind SelectK and SelectKRows, with the engine
// exposed so in-package tests can force one.
func selectK(ctx context.Context, open func() Rows, maxK int, seed int64, opt SweepOptions, eng engine) (Selection, error) {
	span := obs.StartSpan("cluster.sweep-k")
	defer span.End()
	main := open()
	n, d := main.Len(), main.Dim()
	metRowsClustered.Add(float64(n))
	if maxK > n {
		maxK = n
	}
	if maxK < 1 {
		return Selection{MaxScore: math.Inf(-1)}, nil
	}

	// Per-k sufficient statistics: centroids (O(k·d)), SSE and cluster
	// occupancy. The O(n) assignment stays in per-worker scratch and is
	// re-derived below for the single chosen k.
	type runStats struct {
		k      int
		cents  *stats.Matrix
		sse    float64
		counts []int
	}
	runs := make([]runStats, maxK)
	scores := make([]float64, maxK)
	sses := make([]float64, maxK)

	// Clamp once and hand pool.RunCtx the clamped count, so the scratch
	// slice and the pool's worker-id range share one invariant.
	workers := opt.Workers
	if workers <= 0 || workers > maxK {
		workers = maxK
	}
	scratches := make([]*scratch, workers)
	sources := make([]Rows, workers)
	err := pool.RunCtx(ctx, maxK, workers, func(_ context.Context, worker, i int) error {
		if scratches[worker] == nil {
			scratches[worker] = newScratch()
			sources[worker] = open()
		}
		sc := scratches[worker]
		k := i + 1
		res := kmeansRun(sources[worker], k, deriveSeed(seed, k), eng, opt.Warm, sc)
		runs[i] = runStats{
			k:      res.K,
			cents:  res.Centroids,
			sse:    res.SSE,
			counts: append([]int(nil), sc.counts[:res.K]...),
		}
		scores[i] = bicStats(n, d, res.K, res.SSE, runs[i].counts)
		sses[i] = res.SSE
		return nil
	})
	if err != nil {
		return Selection{}, err
	}

	best, worst := math.Inf(-1), math.Inf(1)
	for _, s := range scores {
		if s > best {
			best = s
		}
		if s < worst {
			worst = s
		}
	}
	cut := worst + bicFrac*(best-worst)
	chosen := maxK - 1
	for i := range scores {
		if scores[i] >= cut {
			chosen = i
			break
		}
	}

	// Materialize the chosen clustering: one assignment pass over its
	// stored centroids, bit-identical to the engine's own final pass
	// (both are assignAll with the shared tie-breaking scan).
	r := runs[chosen]
	assign := make([]int, n)
	counts := make([]int, r.k)
	assignAll(main, r.cents, assign, counts)
	return Selection{
		Best:     Result{K: r.k, Assign: assign, Centroids: r.cents, SSE: r.sse},
		Scores:   scores,
		SSEs:     sses,
		MaxScore: best,
	}, nil
}

// SelectKNaive is the pre-scaling reference sweep: one fresh, serial,
// exact Lloyd run per k with no scratch reuse and no parallelism. It
// uses the same derived per-k seeds as SelectK, so the sweep with the
// exact engine is bit-identical to it — the differential contract the
// parallel sweep is tested against, and the baseline configuration of
// BenchmarkClusterSweep.
func SelectKNaive(m *stats.Matrix, maxK int, seed int64) Selection {
	if maxK > m.Rows {
		maxK = m.Rows
	}
	if maxK < 1 {
		return Selection{MaxScore: math.Inf(-1)}
	}
	results := make([]Result, maxK)
	scores := make([]float64, maxK)
	sses := make([]float64, maxK)
	best, worst := math.Inf(-1), math.Inf(1)
	for k := 1; k <= maxK; k++ {
		results[k-1] = KMeans(m, k, deriveSeed(seed, k))
		scores[k-1] = BIC(m, results[k-1])
		sses[k-1] = results[k-1].SSE
		if scores[k-1] > best {
			best = scores[k-1]
		}
		if scores[k-1] < worst {
			worst = scores[k-1]
		}
	}
	cut := worst + bicFrac*(best-worst)
	for k := 1; k <= maxK; k++ {
		if scores[k-1] >= cut {
			return Selection{Best: results[k-1], Scores: scores, SSEs: sses, MaxScore: best}
		}
	}
	return Selection{Best: results[maxK-1], Scores: scores, SSEs: sses, MaxScore: best}
}
