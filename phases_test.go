package mica

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"mica/internal/phases"
)

// runPhases is b's phase analysis through a per-benchmark Run.
func runPhases(t testing.TB, b Benchmark, cfg PhaseConfig) *PhaseResult {
	t.Helper()
	rep, err := Run(context.Background(), Request{
		Benchmarks: []Benchmark{b}, Phases: &PhasePipelineConfig{Phase: cfg, Workers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep.Phases[0].Result
}

// analyzeSource is b's phase analysis by phases.Analyze, which streams
// the intervals of one source through one profiler and clusters them:
// the oracle the shard pipelines are held to.
func analyzeSource(t testing.TB, b Benchmark, cfg PhaseConfig) *PhaseResult {
	t.Helper()
	m, err := b.Source()
	if err != nil {
		t.Fatal(err)
	}
	res, err := phases.Analyze(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestAnalyzePhasesOnRegistryBenchmark(t *testing.T) {
	b, err := BenchmarkByName("SPEC2000/twolf/ref")
	if err != nil {
		t.Fatal(err)
	}
	res := runPhases(t, b, PhaseConfig{
		IntervalLen:  5_000,
		MaxIntervals: 20,
		MaxK:         5,
		Seed:         1,
	})
	if len(res.Intervals) != 20 {
		t.Fatalf("got %d intervals", len(res.Intervals))
	}
	if res.K < 1 || res.K > 5 {
		t.Errorf("K = %d out of range", res.K)
	}
	sum := 0.0
	for _, rep := range res.Representatives {
		sum += rep.Weight
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("representative weights sum to %g", sum)
	}
}

func TestAnalyzePhasesDefaultsApplied(t *testing.T) {
	b, err := BenchmarkByName("MiBench/sha/large")
	if err != nil {
		t.Fatal(err)
	}
	// Zero-valued config: defaults must kick in (including profiler
	// options with memory-dependence tracking).
	res := runPhases(t, b, PhaseConfig{MaxIntervals: 5, IntervalLen: 2_000})
	if len(res.Intervals) != 5 {
		t.Fatalf("got %d intervals", len(res.Intervals))
	}
	// sha's PPM accuracy must be measured (non-zero) under defaults.
	if res.Vectors.At(0, 43) == 0 {
		t.Error("PPM characteristics not measured with default options")
	}
}

// TestAnalyzePhasesHonorsOptions is the regression test for the option
// clobbering bug: phase analysis used to replace the caller's entire
// Options struct whenever PPMOrder was zero, silently discarding Subset
// (and a disabled mem-deps setting). A subset restricted to the
// instruction mix must keep every non-mix characteristic at zero.
func TestAnalyzePhasesHonorsOptions(t *testing.T) {
	b, err := BenchmarkByName("MiBench/sha/large")
	if err != nil {
		t.Fatal(err)
	}
	subset := make([]bool, NumChars)
	for c := 0; c < 6; c++ { // instruction mix only
		subset[c] = true
	}
	cfg := PhaseConfig{MaxIntervals: 4, IntervalLen: 2_000}
	cfg.Options.Subset = subset
	res := runPhases(t, b, cfg)
	for i := range res.Intervals {
		for c := 6; c < NumChars; c++ {
			if res.Vectors.At(i, c) != 0 {
				t.Fatalf("interval %d: %s measured despite mix-only subset (Options clobbered)",
					i, CharName(c))
			}
		}
		if res.Vectors.At(i, 0) == 0 && res.Vectors.At(i, 3) == 0 {
			t.Fatalf("interval %d: selected mix characteristics not measured", i)
		}
	}

}

// TestAnalyzePhasesAllRegistryPaperScale is the acceptance test for the
// registry-wide phase Run path: the full 122-benchmark registry at >= 1000
// intervals per benchmark under the fixed worker pool, with results in
// Table I order and bit-identical to the unpooled per-interval-profiler
// reference path on sampled benchmarks.
func TestAnalyzePhasesAllRegistryPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale registry sweep skipped in -short mode")
	}
	pcfg := PhaseConfig{IntervalLen: 400, MaxIntervals: 1000, MaxK: 3, Seed: 2006}
	cfg := PhasePipelineConfig{Phase: pcfg, Workers: 4}
	rep, err := Run(context.Background(), Request{Benchmarks: Benchmarks(), Phases: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	results := rep.Phases
	all := Benchmarks()
	if len(results) != len(all) {
		t.Fatalf("got %d results, want %d", len(results), len(all))
	}
	full := 0
	for i, r := range results {
		if r.Benchmark.Name() != all[i].Name() {
			t.Fatalf("result %d is %s, want Table I order (%s)", i, r.Benchmark.Name(), all[i].Name())
		}
		if len(r.Result.Intervals) == 0 {
			t.Fatalf("%s: no intervals", r.Benchmark.Name())
		}
		if len(r.Result.Intervals) == pcfg.MaxIntervals {
			full++
		}
	}
	if full < len(all)*9/10 {
		t.Errorf("only %d/%d benchmarks reached %d intervals", full, len(all), pcfg.MaxIntervals)
	}

	// Differential check against the unpooled reference on a sample
	// spanning suites and kernel families.
	for _, name := range []string{
		"SPEC2000/gzip/program", "MediaBench/mpeg2/encode", "BioInfoMark/blast/protein",
	} {
		var got *PhaseResult
		for _, r := range results {
			if r.Benchmark.Name() == name {
				got = r.Result
				break
			}
		}
		if got == nil {
			t.Fatalf("%s missing from registry results", name)
		}
		b, err := BenchmarkByName(name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := b.Instantiate()
		if err != nil {
			t.Fatal(err)
		}
		want, err := phases.AnalyzeUnpooled(m, pcfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: pipeline result diverges from unpooled reference", name)
		}
	}
}

// TestAnalyzePhasesBenchmarksOrder covers the pipeline at small scale:
// input order preserved and per-benchmark results equal to the
// streaming single-benchmark analysis, phases.Analyze.
func TestAnalyzePhasesBenchmarksOrder(t *testing.T) {
	names := []string{"MiBench/sha/large", "SPEC2000/gzip/program", "CommBench/drr/drr"}
	bs := make([]Benchmark, len(names))
	for i, n := range names {
		b, err := BenchmarkByName(n)
		if err != nil {
			t.Fatal(err)
		}
		bs[i] = b
	}
	pcfg := PhaseConfig{IntervalLen: 1_000, MaxIntervals: 12, MaxK: 3, Seed: 9}
	var seen []string
	rep, err := Run(context.Background(), Request{Benchmarks: bs, Phases: &PhasePipelineConfig{
		Phase:   pcfg,
		Workers: 2,
		Progress: func(done, total int, name string) {
			seen = append(seen, name)
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	results := rep.Phases
	if len(results) != len(bs) || len(seen) != len(bs) {
		t.Fatalf("got %d results, %d progress calls", len(results), len(seen))
	}
	for i, r := range results {
		if r.Benchmark.Name() != names[i] {
			t.Errorf("result %d is %s, want %s", i, r.Benchmark.Name(), names[i])
		}
		if single := analyzeSource(t, bs[i], pcfg); !reflect.DeepEqual(r.Result, single) {
			t.Errorf("%s: pipeline result diverges from phases.Analyze", names[i])
		}
	}
}

// TestAnalyzePhasesBenchmarksReportsErrors pins the pipeline's error
// aggregation: an instantiation failure anywhere in the batch surfaces
// as an error naming the broken benchmark, and a broken entry does not
// take down its worker's remaining shard silently.
func TestAnalyzePhasesBenchmarksReportsErrors(t *testing.T) {
	good, err := BenchmarkByName("MiBench/sha/large")
	if err != nil {
		t.Fatal(err)
	}
	broken := good
	broken.Kernel = "no-such-kernel"
	_, err = Run(context.Background(), Request{
		Benchmarks: []Benchmark{good, broken},
		Phases: &PhasePipelineConfig{
			Phase:   PhaseConfig{IntervalLen: 500, MaxIntervals: 3, MaxK: 2, Seed: 1},
			Workers: 1,
		},
	})
	if err == nil {
		t.Fatal("broken benchmark accepted")
	}
	if !strings.Contains(err.Error(), "no-such-kernel") && !strings.Contains(err.Error(), good.Name()) {
		t.Errorf("error does not identify the failure: %v", err)
	}
}

func BenchmarkPhaseAnalysis(b *testing.B) {
	bench, err := BenchmarkByName("SPEC2000/twolf/ref")
	if err != nil {
		b.Fatal(err)
	}
	var k int
	for i := 0; i < b.N; i++ {
		res := analyzeSource(b, bench, PhaseConfig{
			IntervalLen:  5_000,
			MaxIntervals: 20,
			MaxK:         6,
			Seed:         int64(i),
		})
		k = res.K
	}
	b.ReportMetric(float64(k), "phases")
}
