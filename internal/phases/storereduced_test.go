package phases

import (
	"reflect"
	"strings"
	"testing"

	"mica/internal/mica"
	"mica/internal/stats"
	"mica/internal/trace"
)

// TestMeasurementPlanRowsMatchesMatrix: the planner over the matrix
// normalizedStore builds from a store produces the same plan as over
// stats.ZScoreNormalize of the concatenated matrix of the same
// (float32-rounded) data.
func TestMeasurementPlanRowsMatchesMatrix(t *testing.T) {
	benches := []benchIntervals{
		synthBench("p/a", 50, 31),
		synthBench("p/b", 40, 32),
	}
	cfg := Config{IntervalLen: 1000, MaxIntervals: 50, MaxK: 6, Seed: 2006}
	st := storeFrom(t, t.TempDir(), benches)

	rounded := roundF32(benches)
	want := jointOracle(rounded, cfg)
	planMem := measurementPlanRows(stats.ZScoreNormalize(concatRows(rounded)), want.Assign, want.K, 2)

	norm, _, _, err := normalizedStore(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	planStore := measurementPlanRows(norm, want.Assign, want.K, 2)
	if !reflect.DeepEqual(planMem, planStore) {
		t.Fatalf("store-backed plan %v differs from matrix plan %v", planStore, planMem)
	}
}

// TestReplayJointStoreMatchesReplayJoint is the store-backed joint
// reduction differential: characterize the two-phase program cheaply,
// push the cheap vectors through a float32 store, cluster and replay
// from the store — and compare bit for bit against the joint replay
// from an in-memory source holding the same rounded vectors.
func TestReplayJointStoreMatchesReplayJoint(t *testing.T) {
	cfg := reducedTestConfig()
	ph, err := CharacterizeReducedWith(newMachine(t), mica.NewProfiler(cfg.CheapConfig().Options), cfg)
	if err != nil {
		t.Fatal(err)
	}
	benches := []benchIntervals{{Name: "twophase", Result: ph}}
	machines := func(int) (trace.Source, error) { return newMachine(t), nil }

	st := storeFrom(t, t.TempDir(), benches)
	jStore, _, err := AnalyzeJointStore(t.Context(), st, cfg.CheapConfig(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReplayJointStore(st, jStore, machines, cfg)
	if err != nil {
		t.Fatal(err)
	}

	mem := memFrom(t, roundF32(benches))
	jMem, _, err := AnalyzeJointStore(t.Context(), mem, cfg.CheapConfig(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ReplayJointStore(mem, jMem, machines, cfg)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(got.Chars, want.Chars) {
		t.Error("store-backed joint replay extrapolated different characteristic vectors")
	}
	if !reflect.DeepEqual(got.HPC, want.HPC) {
		t.Error("store-backed joint replay extrapolated different HPC vectors")
	}
	if got.MeasuredInsts != want.MeasuredInsts {
		t.Errorf("store replay measured %d insts, in-memory %d", got.MeasuredInsts, want.MeasuredInsts)
	}
}

// TestReplayJointStoreRowMismatch: a vocabulary built for a different
// store (row count mismatch) is rejected up front.
func TestReplayJointStoreRowMismatch(t *testing.T) {
	st := storeFrom(t, t.TempDir(), []benchIntervals{synthBench("m/a", 20, 41)})
	j := &JointResult{Rows: make([]RowRef, 7)}
	_, err := ReplayJointStore(st, j, func(int) (trace.Source, error) { return nil, nil }, reducedTestConfig())
	if err == nil || !strings.Contains(err.Error(), "rows") {
		t.Fatalf("row-count mismatch error = %v", err)
	}
}

// TestReplayReducedShardMatchesExact: replaying a benchmark's cheap
// pass read back from a float32 store shard clusters it as the
// independent joint oracle clusters the rounded vectors, partitions
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
	want := jointOracle(roundF32(bench), cfg.CheapConfig())
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
// bit the independent joint oracle's clustering of the same
// float32-rounded vectors, projected onto the one benchmark.
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

	rounded := roundF32([]benchIntervals{bench})
	oracle := jointOracle(rounded, cfg)
	want := &Result{Intervals: rounded[0].Result.Intervals, Vectors: rounded[0].Result.Vectors,
		Assign: oracle.Assign, K: oracle.K}
	for _, r := range oracle.Representatives {
		want.Representatives = append(want.Representatives, Representative{Phase: r.Phase, Interval: r.Row, Weight: r.Weight})
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("shard result (K=%d) differs from the rounded oracle clustering (K=%d)", got.K, want.K)
	}
}
