package mica

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"
)

// The tentpole proof obligation: every pipeline produces bit-identical
// results from a trace-backed benchmark and from the live embedded VM
// it was recorded from. The trace-backed benchmarks reuse the live
// benchmarks' three-part names, so config stamps, store shard names
// and joint row provenance line up exactly and reflect.DeepEqual can
// compare whole result structs.

// tracePair records b at budget and returns the trace-backed twin.
func tracePair(t *testing.T, b Benchmark, budget uint64) Benchmark {
	t.Helper()
	path := filepath.Join(t.TempDir(), "b.trc")
	n, err := RecordTrace(b, path, budget)
	if err != nil {
		t.Fatalf("recording %s: %v", b.Name(), err)
	}
	if n != budget {
		t.Fatalf("recorded %d instructions of %s, want %d", n, b.Name(), budget)
	}
	return TraceBenchmark(b.Name(), path)
}

var diffPhaseCfg = PhaseConfig{IntervalLen: 2_000, MaxIntervals: 10, MaxK: 3, Seed: 42}

const diffBudget = 2_000 * 10 // IntervalLen * MaxIntervals: both sides see every window

func TestTraceProfileMatchesLiveVM(t *testing.T) {
	live, err := BenchmarkByName("MiBench/sha/large")
	if err != nil {
		t.Fatal(err)
	}
	replay := tracePair(t, live, diffBudget)

	cfg := DefaultConfig()
	cfg.InstBudget = diffBudget
	want, err := Profile(live, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Profile(replay, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Insts != want.Insts {
		t.Errorf("replay profiled %d instructions, live %d", got.Insts, want.Insts)
	}
	if got.Chars != want.Chars {
		t.Error("47-characteristic vectors diverge between replay and live VM")
	}
	if got.HPC != want.HPC {
		t.Error("HPC vectors diverge between replay and live VM")
	}
}

func TestTracePhasesMatchLiveVM(t *testing.T) {
	live, err := BenchmarkByName("SPEC2000/twolf/ref")
	if err != nil {
		t.Fatal(err)
	}
	replay := tracePair(t, live, diffBudget)

	want := runPhases(t, live, diffPhaseCfg)
	got := runPhases(t, replay, diffPhaseCfg)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("phase decomposition diverges: replay K=%d/%d intervals, live K=%d/%d",
			got.K, len(got.Intervals), want.K, len(want.Intervals))
	}
}

func TestTraceReducedMatchesLiveVM(t *testing.T) {
	live, err := BenchmarkByName("CommBench/drr/drr")
	if err != nil {
		t.Fatal(err)
	}
	replay := tracePair(t, live, diffBudget)

	cfg := ReducedConfig{Phase: diffPhaseCfg}
	want, err := reduceOne(live, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := reduceOne(replay, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("reduced profile diverges: replay chars %v, live %v", got.Chars, want.Chars)
	}
}

// TestTraceJointStoreMatchesLiveVM drives the deepest pipeline — the
// store-backed joint analysis — once from live benchmarks and once
// from their recorded traces, through separate stores, and requires
// the identical shared-phase vocabulary.
func TestTraceJointStoreMatchesLiveVM(t *testing.T) {
	names := []string{"MiBench/sha/large", "CommBench/drr/drr"}
	var lives, replays []Benchmark
	for _, n := range names {
		b, err := BenchmarkByName(n)
		if err != nil {
			t.Fatal(err)
		}
		lives = append(lives, b)
		replays = append(replays, tracePair(t, b, diffBudget))
	}

	cfg := PhasePipelineConfig{Phase: diffPhaseCfg, Workers: 2}
	jointStore := func(bs []Benchmark, dir string) *PhaseJointResult {
		rep, err := Run(context.Background(), Request{
			Benchmarks: bs, Joint: true, Phases: &cfg, Store: StoreOptions{Dir: filepath.Join(t.TempDir(), dir)},
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Joint
	}
	want := jointStore(lives, "live")
	got := jointStore(replays, "replay")
	if !reflect.DeepEqual(got, want) {
		t.Errorf("store-backed joint analysis diverges: replay K=%d over %d rows, live K=%d over %d rows",
			got.K, len(got.Rows), want.K, len(want.Rows))
	}
}
