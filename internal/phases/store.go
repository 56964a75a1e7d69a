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

// AnalyzeJointStore clusters the intervals of every shard in src
// once into a shared cross-benchmark phase vocabulary (normalize,
// SelectK, then deriveFrom's representative selection) and reports
// per-benchmark phase occupancy plus cross-benchmark representatives.
// It is the package's one clustering: on a source holding a single
// shard it is that benchmark's per-benchmark analysis, which
// ResultFromShard projects onto a Result. src is a committed
// interval-vector store or an in-memory ivstore.Mem; either holds the
// characterized vectors, which are float32 values, bit for bit.
//
// One sequential pass reads every shard once and copies its rows into
// a resident n×d matrix, which is z-scored in place with the column
// statistics stats.ZScoreNormalize computes, and the clustering runs
// on it through cluster.SelectKRows — so the vocabulary (assignment,
// K, representatives, occupancy) is bit for bit what stats.ZScoreNormalize
// and cluster.SelectK give on the concatenated rows. The matrix lives
// only for the duration of the call; peak memory is its n×d×8 bytes
// plus one shard. workers bounds sweep parallelism (0 = GOMAXPROCS);
// workers share the one matrix.
//
// Cancelling ctx stops the clustering sweep from dispatching per-k
// runs and returns ctx's error; a panicking sweep worker is isolated
// and returned as an error instead of killing the process.
//
// A non-nil warm seeds the analysis from a previous run's state: when
// warm matches the shards (configuration hash, dimensionality) and the
// data's normalization statistics have drifted less than WarmMaxDrift
// from the state's, the sweep starts every k from the previous
// centroids (renormalized into the current statistics' space) instead
// of k-means++. The returned bool reports whether warm seeding was
// actually used — a stale, mismatched or excessively drifted state
// silently falls back to the fresh path, which is always correct (warm
// seeding only changes the initialization, and engines still iterate
// to convergence).
//
// src must not be mutated while the analysis runs.
func AnalyzeJointStore(ctx context.Context, src ivstore.Source, cfg Config, workers int, warm *JointWarmState) (*JointResult, bool, error) {
	cfg = cfg.WithDefaults()
	shards := src.Shards()
	if len(shards) == 0 {
		return nil, false, fmt.Errorf("phases: joint analysis of zero benchmarks")
	}

	// The pass that builds the normalized matrix also records the
	// provenance (RowRefs, per-row instruction counts), and is where a
	// corrupt shard surfaces as an ordinary error.
	j := &JointResult{}
	nspan := obs.StartSpan("phases.normalize")
	norm, mean, std, err := normalizedStore(src, func(si int, sd *ivstore.ShardData) {
		j.Benchmarks = append(j.Benchmarks, sd.Name)
		for ii, insts := range sd.Insts {
			j.Rows = append(j.Rows, RowRef{Bench: si, Interval: ii})
			j.RowInsts = append(j.RowInsts, insts)
		}
	})
	nspan.End()
	if err != nil {
		return nil, false, fmt.Errorf("phases: joint analysis: %w", err)
	}

	opt := cluster.SweepOptions{Workers: workers}
	warmUsed := false
	if ws := warm.seeds(shards, cfg, mean, std); ws != nil {
		opt.Warm = ws
		warmUsed = true
	}

	sel, err := cluster.SelectKRows(ctx, norm, cfg.MaxK, cfg.Seed, opt)
	if err != nil {
		return nil, warmUsed, fmt.Errorf("phases: joint clustering: %w", err)
	}

	j.deriveFrom(norm, sel)
	j.centroids = sel.Best.Centroids
	j.normMean, j.normStd = mean, std
	return j, warmUsed, nil
}

// normalizedStore copies every row of src into one n×d matrix in a
// single sequential pass, one ReadShard per shard, and z-scores it in
// place, returning the matrix and the column statistics it was
// normalized with — bit for bit what stats.ZScoreNormalize gives on the
// concatenated rows. Every shard must hold 47-characteristic rows.
// visit sees each shard in order, so the caller folds its per-shard
// work into the same pass.
func normalizedStore(src ivstore.Source, visit func(si int, sd *ivstore.ShardData)) (norm *stats.Matrix, mean, std []float64, err error) {
	shards := src.Shards()
	n := 0
	for _, sh := range shards {
		n += sh.Rows
	}
	norm = stats.NewMatrix(n, mica.NumChars)
	r := 0
	for si, sh := range shards {
		sd, err := src.ReadShard(si)
		if err != nil {
			return nil, nil, nil, err
		}
		if sd.Vecs.Cols != mica.NumChars || sd.Vecs.Rows != sh.Rows {
			return nil, nil, nil, fmt.Errorf("shard %s holds %dx%d rows, want %dx%d",
				sh.Name, sd.Vecs.Rows, sd.Vecs.Cols, sh.Rows, mica.NumChars)
		}
		copy(norm.Data[r*mica.NumChars:], sd.Vecs.Data)
		r += sd.Vecs.Rows
		visit(si, sd)
	}
	mean, std = stats.ZScoreInPlace(norm)
	return norm, mean, std, nil
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

// WarmState packages a joint result's clustering state for
// persistence, stamped with the given configuration hash. Returns nil
// for a result AnalyzeJointStore did not build.
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

// seeds validates a warm state against the shards and the freshly
// computed normalization statistics, returning a cluster.WarmStart
// with the centroids renormalized into the current statistics' space —
// or nil when the state is absent, mismatched (a shard stamped with
// another configuration hash), or drifted past WarmMaxDrift.
func (w *JointWarmState) seeds(shards []ivstore.Shard, cfg Config, mean, std []float64) *cluster.WarmStart {
	d := len(mean)
	if w == nil || w.K <= 0 || w.K > cfg.MaxK ||
		len(w.Mean) != d || len(w.Std) != d || len(w.Centroids) != w.K {
		return nil
	}
	for _, sh := range shards {
		if w.ConfigHash != "" && w.ConfigHash != sh.ConfigHash {
			return nil
		}
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
