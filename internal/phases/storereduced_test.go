package phases

import (
	"reflect"
	"strings"
	"testing"

	"mica/internal/ivstore"
	"mica/internal/mica"
	"mica/internal/stats"
	"mica/internal/trace"
)

// TestMeasurementPlanRowsMatchesMatrix: the measurement plan drawn
// from a store-backed vocabulary's recorded distances is the plan over
// stats.ZScoreNormalize of the concatenated matrix of the same data.
func TestMeasurementPlanRowsMatchesMatrix(t *testing.T) {
	benches := []benchIntervals{
		synthBench("p/a", 50, 31),
		synthBench("p/b", 40, 32),
	}
	cfg := Config{IntervalLen: 1000, MaxIntervals: 50, MaxK: 6, Seed: 2006}
	got, _, err := AnalyzeJointStore(t.Context(), storeFrom(t, t.TempDir(), benches), cfg, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := jointOracle(benches, cfg)
	planWant := measurementPlan(phaseMeanDistances(stats.ZScoreNormalize(concatRows(benches)), want.Assign, want.K), want.Assign, want.K, 2)
	if planGot := measurementPlan(got.meanDist, got.Assign, got.K, 2); !reflect.DeepEqual(planGot, planWant) {
		t.Fatalf("store-backed plan %v differs from matrix plan %v", planGot, planWant)
	}
}

// TestReplayJointStoreMatchesReplayJoint is the store-backed joint
// reduction differential: characterize the two-phase program cheaply,
// push the cheap vectors through a float32 store, cluster and replay
// from the store — and compare bit for bit against the joint reduction
// from an in-memory source holding the same vectors.
func TestReplayJointStoreMatchesReplayJoint(t *testing.T) {
	cfg := reducedTestConfig()
	ph, err := CharacterizeReducedWith(newMachine(t), mica.NewProfiler(cfg.CheapConfig().Options), cfg)
	if err != nil {
		t.Fatal(err)
	}
	benches := []benchIntervals{{Name: "twophase", Result: ph}}
	reduce := func(src ivstore.Source) *JointReduced {
		j, _, err := AnalyzeJointStore(t.Context(), src, cfg.CheapConfig(), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		jr, err := ReplayJointStore(j, func(int) (trace.Source, error) { return newMachine(t), nil }, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return jr
	}
	if !reflect.DeepEqual(reduce(storeFrom(t, t.TempDir(), benches)), reduce(memFrom(t, benches))) {
		t.Error("store-backed joint reduction differs from the in-memory one")
	}
}

// TestReplayJointStoreRowMismatch: a vocabulary AnalyzeJointStore did
// not build (no distances recorded for its rows) is rejected up front.
func TestReplayJointStoreRowMismatch(t *testing.T) {
	j := &JointResult{Rows: make([]RowRef, 7)}
	_, err := ReplayJointStore(j, func(int) (trace.Source, error) { return nil, nil }, reducedTestConfig())
	if err == nil || !strings.Contains(err.Error(), "rows") {
		t.Fatalf("row-count mismatch error = %v", err)
	}
}

// TestReplayReducedShardMatchesExact: replaying a benchmark's cheap
// pass read back from a float32 store shard clusters it as the
// independent joint oracle clusters the cheap vectors, partitions
// the grid into measured and skipped instructions, and, with every
// interval measured, extrapolates the exact profile.
func TestReplayReducedShardMatchesExact(t *testing.T) {
	cfg := reducedTestConfig()
	ph, err := CharacterizeReducedWith(newMachine(t), mica.NewProfiler(cfg.CheapConfig().Options), cfg)
	if err != nil {
		t.Fatal(err)
	}
	bench := []benchIntervals{{Name: "twophase", Result: ph}}
	st := storeFrom(t, t.TempDir(), bench)
	sd, err := st.ReadShard(0)
	if err != nil {
		t.Fatal(err)
	}

	got, err := ReplayReducedShard(newMachine(t), mica.NewProfiler(cfg.FullOptions), sd, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := jointOracle(bench, cfg.CheapConfig())
	if got.Phases.K != want.K || !reflect.DeepEqual(got.Phases.Assign, want.Assign) {
		t.Errorf("shard replay clustered K=%d, oracle K=%d", got.Phases.K, want.K)
	}
	if got.MeasuredInsts == 0 || got.MeasuredInsts+got.SkippedInsts != got.TotalInsts() {
		t.Errorf("measured %d + skipped %d of %d instructions", got.MeasuredInsts, got.SkippedInsts, got.TotalInsts())
	}

	cfg.RepsPerPhase = cfg.Phase.MaxIntervals
	all, err := ReplayReducedShard(newMachine(t), mica.NewProfiler(cfg.FullOptions), sd, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := CharacterizeExact(newMachine(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if all.MeasuredInsts != ex.TotalInsts() || all.SkippedInsts != 0 {
		t.Errorf("measured %d and skipped %d of %d instructions", all.MeasuredInsts, all.SkippedInsts, ex.TotalInsts())
	}
	checkMatchesExact(t, all.Chars, all.HPC, ex)
}

// TestResultFromShardGrid: the interval grid rebuilt from a shard's
// instruction counts is the original contiguous grid.
func TestResultFromShardGrid(t *testing.T) {
	bench := synthBench("g/a", 25, 51)
	st := storeFrom(t, t.TempDir(), []benchIntervals{bench})
	sd, err := st.ReadShard(0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ResultFromShard(sd, reducedTestConfig().CheapConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Intervals, bench.Result.Intervals) {
		t.Fatal("rebuilt interval grid differs from the original")
	}
	if res.K < 1 || len(res.Assign) != len(res.Intervals) || len(res.Representatives) == 0 {
		t.Fatalf("rebuilt result not clustered: K=%d, %d assignments", res.K, len(res.Assign))
	}
	var _ *stats.Matrix = res.Vectors
}

// TestResultFromShardMatchesRoundedCluster: under a plain phase
// configuration, the Result lifted out of a float32 shard is bit for
// bit the independent joint oracle's clustering of the vectors written
// to it, projected onto the one benchmark.
func TestResultFromShardMatchesRoundedCluster(t *testing.T) {
	bench := synthBench("g/b", 30, 52)
	cfg := Config{IntervalLen: 1000, MaxIntervals: 30, MaxK: 5, Seed: 2006}
	st := storeFrom(t, t.TempDir(), []benchIntervals{bench})
	sd, err := st.ReadShard(0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ResultFromShard(sd, cfg)
	if err != nil {
		t.Fatal(err)
	}

	oracle := jointOracle([]benchIntervals{bench}, cfg)
	want := &Result{Intervals: bench.Result.Intervals, Vectors: bench.Result.Vectors,
		Assign: oracle.Assign, K: oracle.K}
	for _, r := range oracle.Representatives {
		want.Representatives = append(want.Representatives, Representative{Phase: r.Phase, Interval: r.Row, Weight: r.Weight})
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("shard result (K=%d) differs from the oracle clustering (K=%d)", got.K, want.K)
	}
}
