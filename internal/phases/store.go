package phases

import (
	"context"
	"fmt"
	"math"

	"mica/internal/cluster"
	"mica/internal/ivstore"
	"mica/internal/mica"
	"mica/internal/obs"
	"mica/internal/stats"
)

// AnalyzeJointStore is AnalyzeJoint over a committed interval-vector
// store instead of in-memory characterizations: the registry-scale
// joint path. Rows are streamed shard-by-shard through the store's
// byte-budgeted decoded-shard cache (repeated clustering passes decode
// each shard once while the budget holds), the per-column
// normalization statistics are accumulated in the same order
// stats.ZScoreNormalize uses, and the clustering runs the same engines
// through cluster.SelectKRows — so on data that round-trips the store
// encoding exactly, the resulting vocabulary (assignment, K,
// representatives, occupancy) is bit-identical to AnalyzeJoint on the
// materialized matrix. With the default float32 shards the stored
// rows are the float64 vectors rounded to float32 (relative error
// <= 2^-24); the differential tests pin both facts.
//
// The returned JointResult carries everything except the concatenated
// Vectors matrix, which is exactly what the store exists not to
// materialize — Vectors is nil, and representative vectors can be
// fetched per shard via the store. workers bounds sweep parallelism
// (0 = GOMAXPROCS); workers share the store's decoded-shard cache, so
// peak memory is O(cache budget + k·d).
//
// Cancelling ctx stops the clustering sweep from dispatching per-k
// runs and returns ctx's error; a panicking sweep worker (a corrupt
// row surfacing mid-stream) is isolated and returned as an error
// instead of killing the process.
//
// A non-nil warm seeds the analysis from a previous run's state: when
// warm matches the store (configuration hash, dimensionality) and the
// data's normalization statistics have drifted less than WarmMaxDrift
// from the state's, the sweep starts every k from the previous
// centroids (renormalized into the current statistics' space) instead
// of k-means++. The returned bool reports whether warm seeding was
// actually used — a stale, mismatched or excessively drifted state
// silently falls back to the fresh path, which is always correct (warm
// seeding only changes the initialization, and engines still iterate
// to convergence).
//
// The store must not be mutated while the analysis runs.
func AnalyzeJointStore(ctx context.Context, st *ivstore.Store, cfg Config, workers int, warm *JointWarmState) (*JointResult, bool, error) {
	cfg = cfg.withDefaults()
	shards := st.Shards()
	if len(shards) == 0 {
		return nil, false, fmt.Errorf("phases: joint analysis of an empty store %s", st.Dir())
	}
	if st.Dims() != mica.NumChars {
		return nil, false, fmt.Errorf("phases: store %s has %d-dimensional rows, want %d", st.Dir(), st.Dims(), mica.NumChars)
	}

	// One validating pass over every shard builds the provenance
	// (RowRefs, per-row instruction counts). This is also where a
	// corrupt shard surfaces as an ordinary error, before the
	// streaming passes below (whose Reader has no error channel) start.
	// The pass goes through the decoded-shard cache, so the shards it
	// decodes are the ones the normalization and clustering passes
	// reuse.
	n := st.NumRows()
	j := &JointResult{
		Benchmarks: st.Benchmarks(),
		Rows:       make([]RowRef, 0, n),
		RowInsts:   make([]uint64, 0, n),
	}
	for si := range shards {
		sd, err := st.CachedShard(si)
		if err != nil {
			return nil, false, fmt.Errorf("phases: joint analysis: %w", err)
		}
		for ii, insts := range sd.Insts {
			j.Rows = append(j.Rows, RowRef{Bench: si, Interval: ii})
			j.RowInsts = append(j.RowInsts, insts)
		}
	}

	// Normalization statistics, streamed shard-by-shard in the same
	// accumulation order stats.ZScoreNormalize uses (ColumnStats is
	// pinned bit-identical to it).
	nspan := obs.StartSpan("phases.normalize")
	mean, std := cluster.ColumnStats(st.Rows())
	nspan.End()

	opt := cluster.SweepOptions{Workers: workers}
	warmUsed := false
	if ws := warm.seeds(st, cfg, mean, std); ws != nil {
		opt.Warm = ws
		warmUsed = true
	}

	sel, err := cluster.SelectKRows(ctx, func() cluster.Rows {
		return cluster.Normalized(st.Rows(), mean, std)
	}, cfg.MaxK, cfg.Seed, opt)
	if err != nil {
		return nil, warmUsed, fmt.Errorf("phases: joint clustering of %s: %w", st.Dir(), err)
	}

	j.deriveFrom(cluster.Normalized(st.Rows(), mean, std), sel)
	j.centroids = sel.Best.Centroids
	j.normMean, j.normStd = mean, std
	return j, warmUsed, nil
}

// WarmMaxDrift is the normalization-statistic drift above which a warm
// start falls back to fresh seeding. Drift is the root-mean-square,
// over columns, of the mean shift and standard-deviation shift each
// measured in units of the column's spread — an incremental change to
// one benchmark in a hundred moves it by a few percent at most, while
// a substantively different dataset moves it past this bound (both
// regression-tested).
const WarmMaxDrift = 0.25

// JointWarmState is the persistable warm-start state of a store-backed
// joint clustering: the selected centroids in normalized space, the
// normalization statistics that define that space, the per-phase row
// occupancy (so sweeps needing fewer clusters keep the populated
// ones), and the characterization config hash the vocabulary was built
// under. Serialize it as JSON next to the store (ivstore.WriteAux) and
// feed it back through AnalyzeJointStore on the next run.
type JointWarmState struct {
	// ConfigHash is the store configuration stamp the state was derived
	// under; a mismatch invalidates the state.
	ConfigHash string `json:"config_hash"`
	// K is the number of centroids.
	K int `json:"k"`
	// Mean and Std are the per-column normalization statistics the
	// centroids are expressed under.
	Mean []float64 `json:"mean"`
	Std  []float64 `json:"std"`
	// Centroids are the selected clustering's centers in the normalized
	// space, row-major (K rows of Dims values).
	Centroids [][]float64 `json:"centroids"`
	// Counts is the per-phase row occupancy of the selected clustering.
	Counts []int `json:"counts"`
}

// WarmState packages a store-backed joint result's clustering state
// for persistence, stamped with the given configuration hash. Returns
// nil when the result carries no warm-start capture (in-memory
// results).
func (j *JointResult) WarmState(configHash string) *JointWarmState {
	if j == nil || j.centroids == nil || j.normMean == nil || j.normStd == nil {
		return nil
	}
	ws := &JointWarmState{
		ConfigHash: configHash,
		K:          j.K,
		Mean:       j.normMean,
		Std:        j.normStd,
		Centroids:  make([][]float64, j.centroids.Rows),
		Counts:     make([]int, j.K),
	}
	for c := range ws.Centroids {
		ws.Centroids[c] = append([]float64(nil), j.centroids.Row(c)...)
	}
	for _, c := range j.Assign {
		ws.Counts[c]++
	}
	return ws
}

// seeds validates a warm state against a store and the freshly
// computed normalization statistics, returning a cluster.WarmStart
// with the centroids renormalized into the current statistics' space —
// or nil when the state is absent, mismatched, or drifted past
// WarmMaxDrift.
func (w *JointWarmState) seeds(st *ivstore.Store, cfg Config, mean, std []float64) *cluster.WarmStart {
	d := st.Dims()
	if w == nil || w.K <= 0 || w.K > cfg.MaxK ||
		len(w.Mean) != d || len(w.Std) != d || len(w.Centroids) != w.K {
		return nil
	}
	if w.ConfigHash != "" && w.ConfigHash != st.ConfigHash() {
		return nil
	}
	for _, row := range w.Centroids {
		if len(row) != d {
			return nil
		}
	}
	if warmDrift(w.Mean, w.Std, mean, std) > WarmMaxDrift {
		return nil
	}
	// Renormalize: previous normalized value -> raw -> current
	// normalized space. Columns that were (or became) constant carry a
	// zero coordinate, matching the z-score view's convention.
	cents := make([][]float64, w.K)
	for c, row := range w.Centroids {
		out := make([]float64, d)
		for jc, v := range row {
			raw := v*w.Std[jc] + w.Mean[jc]
			if std[jc] != 0 {
				out[jc] = (raw - mean[jc]) / std[jc]
			}
		}
		cents[c] = out
	}
	counts := w.Counts
	if len(counts) != w.K {
		counts = nil
	}
	return &cluster.WarmStart{Centroids: stats.FromRows(cents), Counts: counts}
}

// warmDrift measures how far the current normalization statistics have
// moved from a warm state's: per column, the mean shift and the
// standard-deviation shift are expressed in units of the column's
// spread (the larger of the two standard deviations; constant columns
// compare means directly against an absolute floor), and the drift is
// the root mean square across columns.
func warmDrift(prevMean, prevStd, mean, std []float64) float64 {
	var acc float64
	for j := range mean {
		scale := prevStd[j]
		if std[j] > scale {
			scale = std[j]
		}
		if scale == 0 {
			if prevMean[j] == mean[j] {
				continue
			}
			scale = math.Max(math.Abs(prevMean[j]), math.Abs(mean[j]))
			if scale == 0 {
				continue
			}
		}
		dm := (mean[j] - prevMean[j]) / scale
		ds := (std[j] - prevStd[j]) / scale
		acc += dm*dm + ds*ds
	}
	return math.Sqrt(acc / float64(len(mean)))
}
