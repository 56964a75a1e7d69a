// Shard-backed reduced profiling: the cheap pass's key-subset interval
// vectors live in a shard source (one shard per benchmark, in memory or
// in an interval-vector store), and the expensive replay gathers only
// the planned representative intervals back out of the shards the
// caller reads. The cheap vectors are kept at the full characteristic
// width (columns outside the key subset are exactly zero, which the
// float32 encoding round-trips losslessly), so the same shard layout,
// config stamping and incremental-adoption machinery serve the plain
// and reduced pipelines alike.
package phases

import (
	"sort"

	"mica/internal/ivstore"
	"mica/internal/mica"
	"mica/internal/stats"
	"mica/internal/trace"
)

// measurementPlanRows is measurementPlan over a normalized matrix: for
// each phase, the reps rows closest to the phase's mean (ties broken by
// ascending row index), returned as row index -> phase. The
// per-benchmark replay hands it one benchmark's z-scored vectors and
// the joint replay the matrix normalizedStore builds.
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

// ResultFromShard reconstructs a phase Result from a stored shard: the
// interval grid is rebuilt from the per-interval instruction counts
// (intervals are contiguous by construction) and the vectors are the
// shard's rows, then the intervals are clustered under cfg — the
// configuration the shard was characterized with (for a reduced
// cheap-pass shard, ReducedConfig.CheapConfig). On an in-memory shard
// it is bit-identical to Analyze; on a store shard it differs only by
// the float32 rounding of the vectors.
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
