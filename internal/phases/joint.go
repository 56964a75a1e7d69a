package phases

import (
	"mica/internal/cluster"
	"mica/internal/stats"
)

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
// interval came from. AnalyzeJointStore builds it; the interval
// vectors stay in the shard source it read.
type JointResult struct {
	// Benchmarks names the input benchmarks, in input order.
	Benchmarks []string
	// Rows is the per-row provenance of the joint matrix.
	Rows []RowRef
	// RowInsts is the dynamic instruction count of each row's interval
	// (parallel to Rows) — the weights occupancy and representative
	// shares are computed from.
	RowInsts []uint64
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

	// Warm-start capture: the normalized-space centroids the
	// vocabulary was derived from and the normalization statistics
	// they live under. WarmState packages them for persistence.
	centroids *stats.Matrix
	normMean  []float64
	normStd   []float64

	// meanDist is each row's distance, in the normalized space, to the
	// mean of its phase's rows: what the reduced replay ranks rows by
	// to plan its measurements (measurementPlan).
	meanDist []float64
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

// deriveFrom fills the clustering-derived half of a JointResult
// (assignment, representatives, occupancy, distances to the phase
// means) from a finished sweep over the normalized rows. norm is the
// z-scored joint matrix AnalyzeJointStore builds from the shards and
// drops on return. It is the one representative selection of the
// package: a per-benchmark Result is its projection for a one-shard
// source.
func (j *JointResult) deriveFrom(norm *stats.Matrix, sel cluster.Selection) {
	j.Assign = sel.Best.Assign
	j.K = sel.Best.K
	j.meanDist = phaseMeanDistances(norm, j.Assign, j.K)

	// Pick the row closest to each centroid as the phase representative
	// (the SimPoint selection rule; the first row wins a tie), weighted
	// by the phase's share of dynamic instructions.
	instsIn := make([]uint64, j.K)
	bestIdx := make([]int, j.K)
	bestDist := make([]float64, j.K)
	for c := range bestDist {
		bestDist[c] = -1
	}
	totalInsts := j.TotalInsts()
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
	// Descending weight by insertion sort (K is small); only strictly
	// heavier representatives move up, so ties keep ascending phase id.
	reps := j.Representatives
	for i := 1; i < len(reps); i++ {
		for k := i; k > 0 && reps[k].Weight > reps[k-1].Weight; k-- {
			reps[k], reps[k-1] = reps[k-1], reps[k]
		}
	}

	// Per-benchmark occupancy: each benchmark's instruction share per
	// shared phase. Instruction counts are accumulated exactly and
	// divided once, so a one-benchmark occupancy row equals the
	// representative weights bit for bit.
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
