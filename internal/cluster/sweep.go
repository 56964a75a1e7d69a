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

// Engine selects the k-means engine a sweep runs per k.
type Engine int

const (
	// EngineAuto uses exact Lloyd below SweepOptions.MiniBatchRows rows
	// and minibatch at or above it — exact where exact is cheap,
	// sampled where full passes dominate.
	EngineAuto Engine = iota
	// EngineLloyd forces the exact reference engine.
	EngineLloyd
	// EngineMiniBatch forces sampled minibatch updates (with the
	// documented exact fallback on tiny inputs).
	EngineMiniBatch
)

// SweepOptions parameterize SelectKOpt.
type SweepOptions struct {
	// Engine picks the per-k clustering engine (default EngineAuto).
	Engine Engine
	// Workers bounds sweep parallelism over the fixed worker pool
	// (0 = GOMAXPROCS). Each worker owns one scratch buffer reused
	// across every k it processes.
	Workers int
	// MiniBatchRows is the row threshold at which EngineAuto switches
	// to minibatch (default 8192).
	MiniBatchRows int
	// BatchSize is the minibatch sample size per iteration (default
	// 1024).
	BatchSize int
	// Warm optionally seeds every swept k from a previous clustering's
	// centroids instead of k-means++ (see WarmStart). Engines still
	// iterate to convergence; ignored when the centroid dimensionality
	// does not match the rows.
	Warm *WarmStart
}

func (o SweepOptions) withDefaults() SweepOptions {
	if o.MiniBatchRows <= 0 {
		o.MiniBatchRows = defaultMiniBatchRows
	}
	if o.BatchSize <= 0 {
		o.BatchSize = defaultBatchSize
	}
	return o
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
// returns the smallest K whose score reaches frac (the paper uses 0.9)
// of the way from the lowest to the highest score across the sweep —
// the SimPoint "90% of max BIC" rule, which operates on the score range
// so it is well defined for negative log-likelihood-based scores.
//
// The sweep runs in parallel over the fixed worker pool with the
// default engine policy (exact Lloyd for small matrices, minibatch
// above the row threshold); SelectKOpt exposes the knobs.
func SelectK(m *stats.Matrix, maxK int, frac float64, seed int64) Selection {
	return SelectKOpt(m, maxK, frac, seed, SweepOptions{})
}

// SelectKOpt is SelectK with explicit engine, parallelism and
// minibatch options. Results are deterministic in (m, maxK, frac,
// seed, Engine, MiniBatchRows, BatchSize): per-k runs use independent
// seeds derived from seed (see the package comment), so neither the
// worker count nor scheduling order can change any outcome.
func SelectKOpt(m *stats.Matrix, maxK int, frac float64, seed int64, opt SweepOptions) Selection {
	return SelectKRows(func() Rows { return m }, maxK, frac, seed, opt)
}

// SelectKRows is SelectKOpt over an arbitrary row source — the entry
// point of store-backed clustering, where rows are streamed
// shard-by-shard off disk instead of materialized in one flat matrix.
// open is called once per sweep worker (plus once for the sizing and
// final materialization passes), so sources with internal caches — a
// shard reader — are never shared between goroutines; an in-memory
// matrix source can return the same *stats.Matrix every time. Results
// are bit-identical to SelectKOpt on the materialized matrix: the
// engines run the same floating-point operations in the same order,
// only the row fetches differ.
//
// SelectKRows cannot be cancelled and re-panics any per-k worker
// panic after the pool has drained; SelectKRowsCtx is the
// fault-tolerant form.
func SelectKRows(open func() Rows, maxK int, frac float64, seed int64, opt SweepOptions) Selection {
	sel, err := SelectKRowsCtx(context.Background(), open, maxK, frac, seed, opt)
	if err != nil {
		// Without a cancellable context the only possible failure is a
		// per-k panic (a corrupt row source, an injected fault), which
		// this legacy form surfaces exactly as the pre-pool code did:
		// by crashing, after every other k finished cleanly.
		panic(err)
	}
	return sel
}

// SelectKOptCtx is SelectKOpt with cancellation and error reporting:
// the sweep stops dispatching per-k runs when ctx is cancelled
// (in-flight runs drain), and a panicking run is isolated by the
// worker pool and returned as an error attributing the k instead of
// killing the process.
func SelectKOptCtx(ctx context.Context, m *stats.Matrix, maxK int, frac float64, seed int64, opt SweepOptions) (Selection, error) {
	return SelectKRowsCtx(ctx, func() Rows { return m }, maxK, frac, seed, opt)
}

// SelectKRowsCtx is the context-aware, error-returning form of
// SelectKRows — the entry point registry-scale store-backed pipelines
// cancel through. On any error (cancellation, per-k panic) the
// returned Selection is zero; per-k errors carry the item (k-1) and
// worker via pool.ItemError.
func SelectKRowsCtx(ctx context.Context, open func() Rows, maxK int, frac float64, seed int64, opt SweepOptions) (Selection, error) {
	span := obs.StartSpan("cluster.sweep-k")
	defer span.End()
	opt = opt.withDefaults()
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

	// Clamp once and hand pool.Run the clamped count, so the scratch
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
		res := kmeansRun(sources[worker], k, deriveSeed(seed, k), opt.Engine, opt, sc)
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
	cut := worst + frac*(best-worst)
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
// uses the same derived per-k seeds as SelectKOpt, so SelectKOpt with
// EngineLloyd is bit-identical to it — the differential contract the
// parallel sweep is tested against, and the baseline configuration of
// BenchmarkClusterSweep.
func SelectKNaive(m *stats.Matrix, maxK int, frac float64, seed int64) Selection {
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
	cut := worst + frac*(best-worst)
	for k := 1; k <= maxK; k++ {
		if scores[k-1] >= cut {
			return Selection{Best: results[k-1], Scores: scores, SSEs: sses, MaxScore: best}
		}
	}
	return Selection{Best: results[maxK-1], Scores: scores, SSEs: sses, MaxScore: best}
}
