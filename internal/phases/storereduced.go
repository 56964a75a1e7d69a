// Store-backed reduced profiling: the cheap pass's key-subset interval
// vectors live in an interval-vector store (one shard per benchmark)
// instead of memory, and the expensive replay gathers only the planned
// representative intervals back through the store's decoded-shard
// cache. The cheap vectors are stored at the full characteristic width
// (columns outside the key subset are exactly zero, which both store
// encodings round-trip losslessly), so the same shard layout, config
// stamping and incremental-adoption machinery serve the plain and
// reduced pipelines alike.
package phases

import (
	"fmt"
	"sort"

	"mica/internal/cluster"
	"mica/internal/ivstore"
	"mica/internal/mica"
	"mica/internal/stats"
	"mica/internal/trace"
)

// measurementPlanRows is measurementPlan over any normalized row
// source: for each phase, the reps rows closest to the phase's mean
// (ties broken by ascending row index), returned as row index ->
// phase. Rows are consumed one at a time in ascending index order in
// both passes, so a streaming store view yields the same plan a
// materialized matrix would, bit for bit, when the underlying values
// match.
func measurementPlanRows(norm cluster.Rows, assign []int, k, reps int) map[int]int {
	n, d := norm.Len(), norm.Dim()
	means := stats.NewMatrix(k, d)
	counts := make([]int, k)
	for i := 0; i < n; i++ {
		c := assign[i]
		counts[c]++
		row := norm.Row(i)
		for j := 0; j < d; j++ {
			means.Set(c, j, means.At(c, j)+row[j])
		}
	}
	for c := 0; c < k; c++ {
		if counts[c] == 0 {
			continue
		}
		for j := 0; j < d; j++ {
			means.Set(c, j, means.At(c, j)/float64(counts[c]))
		}
	}
	type ranked struct {
		dist float64
		idx  int
	}
	byPhase := make([][]ranked, k)
	for i := 0; i < n; i++ {
		c := assign[i]
		byPhase[c] = append(byPhase[c], ranked{stats.Euclidean(norm.Row(i), means.Row(c)), i})
	}
	plan := make(map[int]int)
	for c, members := range byPhase {
		sort.Slice(members, func(a, b int) bool {
			if members[a].dist != members[b].dist {
				return members[a].dist < members[b].dist
			}
			return members[a].idx < members[b].idx
		})
		take := reps
		if take > len(members) {
			take = len(members)
		}
		for _, r := range members[:take] {
			plan[r.idx] = c
		}
	}
	return plan
}

// ReplayJointStore is ReplayJoint for a store-backed joint vocabulary
// (one whose Vectors matrix was never materialized): the measurement
// plan is computed by streaming the store's rows through the same
// z-score view the clustering used, and the replay itself is the
// shared joint replay. When j carries its clustering's normalization
// statistics (a result of AnalyzeJointStore in this process), they are
// reused; otherwise they are recomputed from the store, which yields
// the identical statistics for an unchanged store.
func ReplayJointStore(st *ivstore.Store, j *JointResult, sources func(bench int) (trace.Source, error), cfg ReducedConfig) (*JointReduced, error) {
	cfg = cfg.WithDefaults()
	if st.NumRows() != len(j.Rows) {
		return nil, fmt.Errorf("phases: joint store replay: store has %d rows, vocabulary has %d", st.NumRows(), len(j.Rows))
	}
	mean, std := j.normMean, j.normStd
	if mean == nil || std == nil {
		mean, std = cluster.ColumnStats(st.Rows())
	}
	norm := cluster.Normalized(st.Rows(), mean, std)
	plan := measurementPlanRows(norm, j.Assign, j.K, cfg.RepsPerPhase)
	return replayJointPlan(j, plan, sources, cfg)
}

// ResultFromShard reconstructs a phase Result from a stored shard: the
// interval grid is rebuilt from the per-interval instruction counts
// (intervals are contiguous by construction) and the vectors are the
// shard's rows, then the intervals are clustered under cfg — the
// configuration the shard was characterized with (for a reduced
// cheap-pass shard, ReducedConfig.CheapConfig). This is the
// store-backed stand-in for re-running the characterization — the
// difference to the in-memory Result is only the store encoding's
// rounding (float32 by default).
func ResultFromShard(sd *ivstore.ShardData, cfg Config) *Result {
	cfg = cfg.WithDefaults()
	res := &Result{
		Intervals: make([]Interval, len(sd.Insts)),
		Vectors:   sd.Vecs,
	}
	var start uint64
	for i, insts := range sd.Insts {
		res.Intervals[i] = Interval{Index: i, Start: start, Insts: insts}
		start += insts
	}
	res.cluster(cfg)
	return res
}

// ReplayReducedShard runs the expensive reduced replay for one
// benchmark whose cheap pass was loaded from a store shard: the shard
// is lifted back into a phase Result (ResultFromShard) and replayed
// with ReplayReduced. m must be a fresh source for the shard's
// benchmark and fullProf a profiler built from cfg.FullOptions.
func ReplayReducedShard(m trace.Source, fullProf *mica.Profiler, sd *ivstore.ShardData, cfg ReducedConfig) (*ReducedResult, error) {
	cfg = cfg.WithDefaults()
	return ReplayReduced(m, fullProf, ResultFromShard(sd, cfg.CheapConfig()), cfg)
}
