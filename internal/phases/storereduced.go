// Store-backed reduced profiling: the cheap pass's key-subset interval
// vectors live in an interval-vector store (one shard per benchmark)
// instead of memory, and the expensive replay gathers only the planned
// representative intervals back out of the shards the caller reads.
// The cheap vectors are stored at the full characteristic width
// (columns outside the key subset are exactly zero, which the float32
// encoding round-trips losslessly), so the same shard layout, config
// stamping and incremental-adoption machinery serve the plain and
// reduced pipelines alike.
package phases

import (
	"fmt"
	"sort"

	"mica/internal/ivstore"
	"mica/internal/mica"
	"mica/internal/stats"
	"mica/internal/trace"
)

// measurementPlanRows is measurementPlan over a normalized matrix: for
// each phase, the reps rows closest to the phase's mean (ties broken by
// ascending row index), returned as row index -> phase. The in-memory
// path hands it the z-scored joint matrix and the store path the
// matrix normalizedStore builds, so both yield the same plan, bit for
// bit, when the underlying values match.
func measurementPlanRows(norm *stats.Matrix, assign []int, k, reps int) map[int]int {
	n, d := norm.Rows, norm.Cols
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
// plan is computed over the same normalized matrix the clustering ran
// on, rebuilt from the store by normalizedStore, and the replay itself
// is the shared joint replay.
func ReplayJointStore(st *ivstore.Store, j *JointResult, sources func(bench int) (trace.Source, error), cfg ReducedConfig) (*JointReduced, error) {
	cfg = cfg.WithDefaults()
	if st.NumRows() != len(j.Rows) {
		return nil, fmt.Errorf("phases: joint store replay: store has %d rows, vocabulary has %d", st.NumRows(), len(j.Rows))
	}
	norm, _, _, err := normalizedStore(st, nil)
	if err != nil {
		return nil, fmt.Errorf("phases: joint store replay: %w", err)
	}
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
