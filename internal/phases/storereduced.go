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
	"context"
	"sort"

	"mica/internal/ivstore"
	"mica/internal/mica"
	"mica/internal/obs"
	"mica/internal/stats"
	"mica/internal/trace"
)

// phaseMeanDistances returns each row's Euclidean distance to the
// mean of its phase's rows in the normalized matrix norm.
func phaseMeanDistances(norm *stats.Matrix, assign []int, k int) []float64 {
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
	dist := make([]float64, n)
	for i, c := range assign {
		dist[i] = stats.Euclidean(norm.Row(i), means.Row(c))
	}
	return dist
}

// measurementPlan selects which rows the expensive pass measures: for
// each phase, the reps rows closest to the phase's mean (dist, as
// phaseMeanDistances gives it; ties broken by ascending row index),
// returned as row index -> phase.
func measurementPlan(dist []float64, assign []int, k, reps int) map[int]int {
	type ranked struct {
		dist float64
		idx  int
	}
	byPhase := make([][]ranked, k)
	for i, c := range assign {
		byPhase[c] = append(byPhase[c], ranked{dist[i], i})
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

// ResultFromShard clusters one benchmark's shard alone, under cfg —
// the configuration the shard was characterized with (for a reduced
// cheap-pass shard, ReducedConfig.CheapConfig). The per-benchmark
// analysis is the joint analysis of a one-shard source: the shard is
// wrapped in an ivstore.Mem, clustered by AnalyzeJointStore, and the
// one-benchmark JointResult is projected onto a Result whose interval
// grid is rebuilt from the per-interval instruction counts (intervals
// are contiguous by construction) and whose vectors are the shard's
// rows.
func ResultFromShard(sd *ivstore.ShardData, cfg Config) (*Result, error) {
	j, err := clusterShard(sd, cfg)
	if err != nil {
		return nil, err
	}
	return resultOf(sd, j), nil
}

// clusterShard runs the joint analysis of a source holding sd alone.
func clusterShard(sd *ivstore.ShardData, cfg Config) (*JointResult, error) {
	mem := ivstore.NewMem([]string{sd.Name})
	if err := mem.WriteShard(sd.Name, sd.Insts, sd.Vecs); err != nil {
		return nil, err
	}
	j, _, err := AnalyzeJointStore(context.TODO(), mem, cfg, 0, nil)
	return j, err
}

// resultOf projects j, the joint result of a source holding sd alone,
// onto sd's per-benchmark Result.
func resultOf(sd *ivstore.ShardData, j *JointResult) *Result {
	res := &Result{
		Intervals: make([]Interval, len(sd.Insts)),
		Vectors:   sd.Vecs,
		Assign:    j.Assign,
		K:         j.K,
	}
	var start uint64
	for i, insts := range sd.Insts {
		res.Intervals[i] = Interval{Index: i, Start: start, Insts: insts}
		start += insts
	}
	for _, r := range j.Representatives {
		res.Representatives = append(res.Representatives, Representative{Phase: r.Phase, Interval: r.Interval, Weight: r.Weight})
	}
	return res
}

// ReplayReducedShard runs the expensive reduced replay for one
// benchmark from its cheap-pass shard: it is the joint reduction of a
// one-shard source. The shard is clustered alone (ResultFromShard),
// its planned intervals are measured by the joint replay, and the rest
// of the grid is fast-forwarded, so every interval is checked to
// replay exactly as the cheap pass ran it. m must be a fresh source
// for the shard's benchmark and fullProf a profiler built from
// cfg.FullOptions.
func ReplayReducedShard(m trace.Source, fullProf *mica.Profiler, sd *ivstore.ShardData, cfg ReducedConfig) (*ReducedResult, error) {
	cfg = cfg.WithDefaults()
	j, err := clusterShard(sd, cfg.CheapConfig())
	if err != nil {
		return nil, err
	}
	span := obs.StartSpan("phases.replay")
	defer span.End()
	jr, err := replayJoint(j, func(int) (trace.Source, error) { return m, nil }, cfg, fullProf)
	if err != nil {
		return nil, err
	}
	rr := &ReducedResult{
		Phases:        resultOf(sd, j),
		HasHPC:        jr.HasHPC,
		Chars:         jr.Chars[0],
		HPC:           jr.HPC[0],
		MeasuredInsts: jr.MeasuredInsts,
		SkippedInsts:  jr.SkippedInsts,
	}
	replayed := 0 // the joint replay stops after the last measured interval
	for _, mi := range jr.Measured {
		rr.Measured = append(rr.Measured, MeasuredInterval{
			Interval: mi.Interval, Phase: mi.Phase, Insts: mi.Insts, Chars: mi.Chars, HPC: mi.HPC,
		})
		replayed = mi.Interval + 1
	}
	// The cheap pass observed min(sampleLen, Insts) of every interval
	// (a shorter interval is one the program halted in), so a cheap
	// pass run in another process is accounted for from its grid.
	sample := cfg.sampleLen()
	for i, iv := range rr.Phases.Intervals {
		rr.SampledInsts += min(iv.Insts, sample)
		if i < replayed {
			continue
		}
		n, err := m.Run(iv.Insts, nil)
		rr.SkippedInsts += n
		if err := replayCheck(i, iv.Insts, n, err); err != nil {
			return nil, err
		}
	}
	return rr, nil
}
