package mica

import (
	"context"
	"math"
	"reflect"
	"testing"
)

// TestAnalyzePhasesJointSingleBenchmarkBitIdentical is the top-level
// differential contract: the in-memory joint Run path over exactly one
// registry benchmark must reproduce phases.Analyze bit for bit —
// assignment, K and representatives — and the shard it clusters holds
// phases.Analyze's vectors as characterized (read back through the
// per-benchmark Run, which shares the characterization).
func TestAnalyzePhasesJointSingleBenchmarkBitIdentical(t *testing.T) {
	for _, name := range []string{"SPEC2000/twolf/ref", "MiBench/sha/large"} {
		b, err := BenchmarkByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := PhaseConfig{IntervalLen: 2_000, MaxIntervals: 15, MaxK: 4, Seed: 9}
		want := analyzeSource(t, b, cfg)
		rep, err := Run(context.Background(), Request{
			Benchmarks: []Benchmark{b}, Joint: true, Phases: &PhasePipelineConfig{Phase: cfg, Workers: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		joint := rep.Joint
		per, err := Run(context.Background(), Request{
			Benchmarks: []Benchmark{b}, Phases: &PhasePipelineConfig{Phase: cfg, Workers: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(per.Phases[0].Result.Vectors.Data, want.Vectors.Data) {
			t.Errorf("%s: in-memory shard vectors diverge from phases.Analyze", name)
		}
		if joint.K != want.K || !reflect.DeepEqual(joint.Assign, want.Assign) {
			t.Errorf("%s: joint assignment diverges (K %d vs %d)", name, joint.K, want.K)
		}
		if len(joint.Representatives) != len(want.Representatives) {
			t.Fatalf("%s: %d representatives vs %d", name,
				len(joint.Representatives), len(want.Representatives))
		}
		for i, jr := range joint.Representatives {
			wr := want.Representatives[i]
			if jr.Phase != wr.Phase || jr.Interval != wr.Interval || jr.Weight != wr.Weight {
				t.Errorf("%s: representative %d = %+v, want %+v", name, i, jr, wr)
			}
		}
	}
}

// TestAnalyzePhasesJointRegistryScale is the registry-scale smoke for
// the joint pipeline: >= 20 benchmarks at 1000 intervals each,
// clustered into one shared vocabulary (large enough that the sweep
// takes the minibatch path), with dense per-benchmark provenance rows.
func TestAnalyzePhasesJointRegistryScale(t *testing.T) {
	if testing.Short() {
		t.Skip("registry-scale joint sweep skipped in -short mode")
	}
	bs := Benchmarks()[:20]
	pcfg := PhasePipelineConfig{
		Phase:   PhaseConfig{IntervalLen: 200, MaxIntervals: 1000, MaxK: 6, Seed: 2006},
		Workers: 4,
	}
	rep, err := Run(context.Background(), Request{Benchmarks: bs, Joint: true, Phases: &pcfg})
	if err != nil {
		t.Fatal(err)
	}
	joint := rep.Joint
	if len(joint.Benchmarks) != 20 {
		t.Fatalf("joint space has %d benchmarks, want 20", len(joint.Benchmarks))
	}
	for i, b := range bs {
		if joint.Benchmarks[i] != b.Name() {
			t.Fatalf("benchmark %d is %s, want input order (%s)", i, joint.Benchmarks[i], b.Name())
		}
	}
	if len(joint.Rows) < 20*900 {
		t.Fatalf("only %d joint rows for 20 benchmarks x 1000 intervals", len(joint.Rows))
	}
	if joint.K < 2 {
		t.Errorf("joint K = %d across 20 benchmarks", joint.K)
	}

	// Provenance invariants at scale: rows are grouped by benchmark in
	// input order, interval indices are dense per benchmark, and every
	// benchmark is represented.
	nextInterval := make([]int, len(bs))
	lastBench := 0
	for r, ref := range joint.Rows {
		if ref.Bench < lastBench {
			t.Fatalf("row %d: benchmark order regressed (%d after %d)", r, ref.Bench, lastBench)
		}
		lastBench = ref.Bench
		if ref.Interval != nextInterval[ref.Bench] {
			t.Fatalf("row %d: interval %d, want dense sequence %d", r, ref.Interval, nextInterval[ref.Bench])
		}
		nextInterval[ref.Bench]++
	}
	for b, n := range nextInterval {
		if n == 0 {
			t.Errorf("benchmark %d contributed no rows", b)
		}
	}

	// Occupancy rows sum to 1 for every benchmark.
	for b := range bs {
		sum := 0.0
		for c := 0; c < joint.K; c++ {
			sum += joint.PhaseShare(b, c)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: occupancy sums to %g", joint.Benchmarks[b], sum)
		}
	}
}

// TestAnalyzePhasesJointReportsErrors: a broken benchmark anywhere in
// the batch surfaces as an error naming it.
func TestAnalyzePhasesJointReportsErrors(t *testing.T) {
	good, err := BenchmarkByName("MiBench/sha/large")
	if err != nil {
		t.Fatal(err)
	}
	broken := good
	broken.Kernel = "no-such-kernel"
	_, err = Run(context.Background(), Request{
		Benchmarks: []Benchmark{good, broken},
		Joint:      true,
		Phases: &PhasePipelineConfig{
			Phase:   PhaseConfig{IntervalLen: 500, MaxIntervals: 3, MaxK: 2, Seed: 1},
			Workers: 1,
		},
	})
	if err == nil {
		t.Fatal("broken benchmark accepted")
	}
}
