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
	sel, err := selectK(context.Background(), m, maxK, seed, SweepOptions{}, engineAuto)
	if err != nil {
		panic(err)
	}
	return sel
}

// SelectKRows is SelectK with cancellation, error reporting and the
// options of opt — the entry point of store-backed clustering, which
// hands it the store's rows as one resident normalized matrix. Every
// sweep worker reads m concurrently and never writes it. Results are
// bit-identical to SelectK on the same matrix.
//
// The sweep stops dispatching per-k runs when ctx is cancelled
// (in-flight runs drain). On any error (cancellation, per-k panic) the
// returned Selection is zero; per-k errors carry the worker and the
// dispatch index maxK-k via pool.ItemError.
func SelectKRows(ctx context.Context, m *stats.Matrix, maxK int, seed int64, opt SweepOptions) (Selection, error) {
	return selectK(ctx, m, maxK, seed, opt, engineAuto)
}

// selectK is the sweep behind SelectK and SelectKRows, with the engine
// exposed so in-package tests can force one.
func selectK(ctx context.Context, m *stats.Matrix, maxK int, seed int64, opt SweepOptions, eng engine) (Selection, error) {
	span := obs.StartSpan("cluster.sweep-k")
	defer span.End()
	n, d := m.Rows, m.Cols
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
	// Dispatch the largest k first: its run is the longest, so
	// ascending order would leave it running alone at the tail. Seeds
	// come from (seed, k) and results land by index, so the order
	// changes no result.
	err := pool.RunCtx(ctx, maxK, workers, func(_ context.Context, worker, item int) error {
		if scratches[worker] == nil {
			scratches[worker] = newScratch()
		}
		sc := scratches[worker]
		k := maxK - item
		i := k - 1
		res := kmeansRun(m, k, deriveSeed(seed, k), eng, opt.Warm, sc)
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
	// (both are assignAll; with no bounds yet, every row is scanned).
	r := runs[chosen]
	assign := make([]int, n)
	assignAll(m, r.cents, assign, make([]int, r.k), make([]float64, n))
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
