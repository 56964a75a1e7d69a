package phases

import (
	"fmt"

	"mica/internal/cluster"
	"mica/internal/mica"
	"mica/internal/obs"
	"mica/internal/stats"
)

// BenchmarkIntervals pairs a benchmark's name with its characterized
// intervals — the input rows AnalyzeJoint concatenates. Only the
// Intervals and Vectors fields of Result are consulted; any
// per-benchmark clustering already present is ignored.
type BenchmarkIntervals struct {
	Name   string
	Result *Result
}

// RowRef is the provenance of one row of the joint matrix: which
// benchmark it came from (index into JointResult.Benchmarks) and which
// of that benchmark's intervals it is.
type RowRef struct {
	Bench    int `json:"bench"`
	Interval int `json:"interval"`
}

// JointRepresentative is one shared phase's chosen simulation point in
// a cross-benchmark phase space.
type JointRepresentative struct {
	// Phase is the shared cluster id.
	Phase int
	// Row is the representative's row in the joint matrix.
	Row int
	// Bench and Interval locate the row's source benchmark and
	// interval (Rows[Row] unpacked, kept inline for rendering).
	Bench    int
	Interval int
	// Weight is the phase's share of dynamic instructions across ALL
	// benchmarks in the joint space.
	Weight float64
}

// JointResult is a shared cross-benchmark phase vocabulary: the
// intervals of many benchmarks clustered ONCE in one normalized space,
// so a phase id means the same behavior no matter which benchmark an
// interval came from.
type JointResult struct {
	// Benchmarks names the input benchmarks, in input order.
	Benchmarks []string
	// Rows is the per-row provenance of the joint matrix.
	Rows []RowRef
	// RowInsts is the dynamic instruction count of each row's interval
	// (parallel to Rows) — the weights occupancy and representative
	// shares are computed from.
	RowInsts []uint64
	// Vectors is the concatenated interval-characteristic matrix
	// (raw, un-normalized), rows in Rows order.
	Vectors *stats.Matrix
	// Assign maps each joint row to its shared phase.
	Assign []int
	// K is the BIC-selected number of shared phases.
	K int
	// Representatives holds one weighted cross-benchmark simulation
	// point per phase, ordered by descending weight.
	Representatives []JointRepresentative
	// Occupancy is the benchmarks-by-phases instruction-share matrix:
	// Occupancy[b][c] is the fraction of benchmark b's dynamic
	// instructions spent in shared phase c. Each row sums to 1, so two
	// benchmarks with similar rows spend their time in the same shared
	// behaviors — the cross-benchmark redundancy signal a joint
	// vocabulary exists to expose.
	Occupancy *stats.Matrix

	// Warm-start capture of store-backed runs: the normalized-space
	// centroids the vocabulary was derived from and the normalization
	// statistics they live under. WarmState packages them for
	// persistence; an in-memory JointResult has none.
	centroids *stats.Matrix
	normMean  []float64
	normStd   []float64
}

// PhaseShare returns benchmark b's instruction share in shared phase c.
func (j *JointResult) PhaseShare(b, c int) float64 { return j.Occupancy.At(b, c) }

// TotalInsts returns the dynamic instruction count across every
// benchmark's intervals in the joint space.
func (j *JointResult) TotalInsts() uint64 {
	var n uint64
	for _, insts := range j.RowInsts {
		n += insts
	}
	return n
}

// AnalyzeJoint concatenates the interval vectors of many benchmarks
// into one matrix (provenance per row), clusters it once with the same
// normalize + SelectK + representative-selection recipe the
// per-benchmark path uses, and reports per-benchmark phase occupancy
// plus cross-benchmark representatives. Run on a single benchmark it
// is bit-identical to that benchmark's per-benchmark analysis — the
// differential contract the joint path is tested against.
func AnalyzeJoint(benches []BenchmarkIntervals, cfg Config) (*JointResult, error) {
	cfg = cfg.withDefaults()
	if len(benches) == 0 {
		return nil, fmt.Errorf("phases: joint analysis of zero benchmarks")
	}
	rows := 0
	for _, b := range benches {
		if b.Result == nil || len(b.Result.Intervals) == 0 || b.Result.Vectors == nil {
			return nil, fmt.Errorf("phases: joint analysis: %s has no characterized intervals", b.Name)
		}
		if b.Result.Vectors.Rows != len(b.Result.Intervals) || b.Result.Vectors.Cols != mica.NumChars {
			return nil, fmt.Errorf("phases: joint analysis: %s has a %dx%d vector matrix for %d intervals",
				b.Name, b.Result.Vectors.Rows, b.Result.Vectors.Cols, len(b.Result.Intervals))
		}
		rows += len(b.Result.Intervals)
	}

	j := &JointResult{
		Benchmarks: make([]string, len(benches)),
		Rows:       make([]RowRef, 0, rows),
		Vectors:    stats.NewMatrix(rows, mica.NumChars),
		RowInsts:   make([]uint64, 0, rows),
	}
	r := 0
	for bi, b := range benches {
		j.Benchmarks[bi] = b.Name
		copy(j.Vectors.Data[r*mica.NumChars:], b.Result.Vectors.Data)
		for ii, iv := range b.Result.Intervals {
			j.Rows = append(j.Rows, RowRef{Bench: bi, Interval: ii})
			j.RowInsts = append(j.RowInsts, iv.Insts)
		}
		r += len(b.Result.Intervals)
	}

	j.clusterJoint(cfg)
	return j, nil
}

// clusterJoint runs the shared clustering over the concatenated matrix
// and derives occupancy and representatives. Split out so a
// cache-loaded JointResult can be re-clustered under a new Config
// without re-profiling.
func (j *JointResult) clusterJoint(cfg Config) {
	nspan := obs.StartSpan("phases.normalize")
	norm := stats.ZScoreNormalize(j.Vectors)
	nspan.End()
	sel := cluster.SelectK(norm, cfg.MaxK, cfg.Seed)
	j.deriveFrom(norm, sel)
}

// deriveFrom fills the clustering-derived half of a JointResult
// (assignment, representatives, occupancy) from a finished sweep over
// the normalized rows. norm may be a materialized matrix (in-memory
// path) or a streaming store view (AnalyzeJointStore); rows are
// consumed one at a time in ascending order, so either source yields
// bit-identical results.
func (j *JointResult) deriveFrom(norm cluster.Rows, sel cluster.Selection) {
	j.Assign = sel.Best.Assign
	j.K = sel.Best.K

	// Representative selection mirrors Result.cluster exactly (same
	// scan order, same strict-less tie-breaking) so a single-benchmark
	// joint run reproduces the per-benchmark representatives bit for
	// bit.
	instsIn := make([]uint64, j.K)
	bestIdx := make([]int, j.K)
	bestDist := make([]float64, j.K)
	for c := range bestDist {
		bestDist[c] = -1
	}
	var totalInsts uint64
	for _, n := range j.RowInsts {
		totalInsts += n
	}
	for i, c := range j.Assign {
		instsIn[c] += j.RowInsts[i]
		d := stats.Euclidean(norm.Row(i), sel.Best.Centroids.Row(c))
		if bestDist[c] < 0 || d < bestDist[c] {
			bestDist[c], bestIdx[c] = d, i
		}
	}
	j.Representatives = j.Representatives[:0]
	for c := 0; c < j.K; c++ {
		if instsIn[c] == 0 {
			continue
		}
		row := bestIdx[c]
		j.Representatives = append(j.Representatives, JointRepresentative{
			Phase:    c,
			Row:      row,
			Bench:    j.Rows[row].Bench,
			Interval: j.Rows[row].Interval,
			Weight:   float64(instsIn[c]) / float64(totalInsts),
		})
	}
	sortRepsByWeight(j.Representatives, func(r JointRepresentative) float64 { return r.Weight })

	// Per-benchmark occupancy: each benchmark's instruction share per
	// shared phase. Instruction counts are accumulated as integers and
	// divided once, so a single-benchmark occupancy row is bit-identical
	// to the per-benchmark representative weights (the joint-reduction
	// differential relies on this).
	j.Occupancy = stats.NewMatrix(len(j.Benchmarks), j.K)
	perBench := make([]uint64, len(j.Benchmarks))
	inPhase := stats.NewMatrix(len(j.Benchmarks), j.K)
	for i, ref := range j.Rows {
		perBench[ref.Bench] += j.RowInsts[i]
		c := j.Assign[i]
		inPhase.Set(ref.Bench, c, inPhase.At(ref.Bench, c)+float64(j.RowInsts[i]))
	}
	for b := range j.Benchmarks {
		for c := 0; c < j.K; c++ {
			j.Occupancy.Set(b, c, inPhase.At(b, c)/float64(perBench[b]))
		}
	}
}
