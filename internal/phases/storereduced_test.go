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
// normalizedStore builds from a store produces the same plan as
// measurementPlan over the concatenated matrix of the same
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
	planMem := measurementPlan(&Result{Vectors: concatRows(rounded), Assign: want.Assign, K: want.K}, 2)

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

// TestReplayReducedShardMatchesInMemory: lifting a benchmark's cheap
// pass out of a store shard and replaying it is bit-identical to the
// in-memory replay over the same float32-rounded cheap vectors.
func TestReplayReducedShardMatchesInMemory(t *testing.T) {
	cfg := reducedTestConfig()
	ph, err := CharacterizeReducedWith(newMachine(t), mica.NewProfiler(cfg.CheapConfig().Options), cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := storeFrom(t, t.TempDir(), []benchIntervals{{Name: "twophase", Result: ph}})
	sd, err := st.ReadShard(0)
	if err != nil {
		t.Fatal(err)
	}

	got, err := ReplayReducedShard(newMachine(t), mica.NewProfiler(cfg.FullOptions), sd, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// In-memory analog: the same rounded vectors clustered under the
	// cheap config, replayed the same way.
	rounded := roundF32([]benchIntervals{{Name: "twophase", Result: ph}})[0].Result
	rounded.cluster(cfg.CheapConfig())
	want, err := ReplayReduced(newMachine(t), mica.NewProfiler(cfg.FullOptions), rounded, cfg)
	if err != nil {
		t.Fatal(err)
	}

	if got.Chars != want.Chars {
		t.Error("shard replay extrapolated a different characteristic vector")
	}
	if got.HPC != want.HPC {
		t.Error("shard replay extrapolated a different HPC vector")
	}
	if got.MeasuredInsts != want.MeasuredInsts || got.SkippedInsts != want.SkippedInsts {
		t.Errorf("shard replay accounting (%d/%d) differs from in-memory (%d/%d)",
			got.MeasuredInsts, got.SkippedInsts, want.MeasuredInsts, want.SkippedInsts)
	}
	if got.Phases.K != want.Phases.K {
		t.Errorf("shard replay clustered K=%d, in-memory K=%d", got.Phases.K, want.Phases.K)
	}
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
	res := ResultFromShard(sd, reducedTestConfig().CheapConfig())
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
// bit the in-memory clustering of the same float32-rounded vectors.
func TestResultFromShardMatchesRoundedCluster(t *testing.T) {
	bench := synthBench("g/b", 30, 52)
	cfg := Config{IntervalLen: 1000, MaxIntervals: 30, MaxK: 5, Seed: 2006}
	st := storeFrom(t, t.TempDir(), []benchIntervals{bench})
	sd, err := st.ReadShard(0)
	if err != nil {
		t.Fatal(err)
	}
	got := ResultFromShard(sd, cfg)

	want := roundF32([]benchIntervals{bench})[0].Result
	want.cluster(cfg.WithDefaults())
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("shard result (K=%d) differs from the rounded in-memory clustering (K=%d)", got.K, want.K)
	}
}
