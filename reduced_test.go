package mica

import (
	"context"
	"sync"
	"testing"
	"time"
)

// reducedBenchSet is the suite-spanning registry set the acceptance
// assertions run over, the same six benchmarks bench/'s reduced
// workload measures: branchy, pointer-chasing, FP, ALU-dense and
// streaming behaviour in one list.
var reducedBenchSet = []string{
	"SPEC2000/gzip/program",
	"SPEC2000/crafty/ref",
	"SPEC2000/mcf/ref",
	"MiBench/sha/large",
	"MiBench/FFT/fft-large",
	"MediaBench/mpeg2/encode",
}

// reducedAcceptanceConfig is the tracked configuration: a 2M-instruction
// trace on a 5000-instruction grid (400 intervals), BIC sweep to 10,
// with the documented defaults (key-characteristic cheap subset, 20%
// interval sampling, 3 measured intervals per phase).
func reducedAcceptanceConfig() ReducedConfig {
	return ReducedConfig{Phase: PhaseConfig{
		IntervalLen:  5_000,
		MaxIntervals: 400,
		MaxK:         10,
		Seed:         2006,
	}}
}

// reduceOne runs the in-memory per-benchmark reduced Run path on one
// benchmark.
func reduceOne(b Benchmark, cfg ReducedConfig) (*ReducedResult, error) {
	rep, err := Run(context.Background(), Request{
		Benchmarks: []Benchmark{b},
		Reduced:    &ReducedPipelineConfig{Reduced: cfg, Workers: 1},
	})
	if err != nil {
		return nil, err
	}
	return rep.Reduced[0].Result, nil
}

// reducedRegistryRun is one tracked benchmark's exact matched-grid
// profile and in-memory reduced profile, with the wall time of each
// call.
type reducedRegistryRun struct {
	name                   string
	ex                     *PhaseExactProfile
	rr                     *ReducedResult
	exactTime, reducedTime time.Duration
}

// reducedRegistry is the fixture the two registry acceptance tests
// share: ProfileExact then reduceOne on each benchmark of the tracked
// set, in set order, each call timed on its own, computed once.
var reducedRegistry struct {
	once sync.Once
	runs []reducedRegistryRun
	err  error
}

func reducedRegistryRuns(t *testing.T) []reducedRegistryRun {
	t.Helper()
	reducedRegistry.once.Do(func() {
		cfg := reducedAcceptanceConfig()
		for _, name := range reducedBenchSet {
			b, err := BenchmarkByName(name)
			if err != nil {
				reducedRegistry.err = err
				return
			}
			run := reducedRegistryRun{name: name}
			start := time.Now()
			if run.ex, err = ProfileExact(b, cfg); err != nil {
				reducedRegistry.err = err
				return
			}
			run.exactTime = time.Since(start)
			start = time.Now()
			if run.rr, err = reduceOne(b, cfg); err != nil {
				reducedRegistry.err = err
				return
			}
			run.reducedTime = time.Since(start)
			reducedRegistry.runs = append(reducedRegistry.runs, run)
		}
	})
	if reducedRegistry.err != nil {
		t.Fatal(reducedRegistry.err)
	}
	return reducedRegistry.runs
}

// TestReducedErrorBoundRegistry is the differential acceptance test:
// on every benchmark of the tracked set, the reduced extrapolation of
// ALL 47 characteristics and 13 HPC metrics must stay within 5%
// per-metric relative error of the exact matched-grid full profile.
func TestReducedErrorBoundRegistry(t *testing.T) {
	for _, run := range reducedRegistryRuns(t) {
		name, ex, rr := run.name, run.ex, run.rr
		if got, want := len(rr.Phases.Intervals), len(ex.Intervals); got != want {
			t.Fatalf("%s: reduced grid has %d intervals, exact has %d", name, got, want)
		}
		for c, e := range rr.CharErrors(ex) {
			if e > 0.05 {
				t.Errorf("%s: characteristic %s extrapolates with %.2f%% relative error (>5%%)",
					name, CharName(c), e*100)
			}
		}
		for c, e := range rr.HPCErrors(ex) {
			if e > 0.05 {
				t.Errorf("%s: HPC metric %s extrapolates with %.2f%% relative error (>5%%)",
					name, HPCMetricName(c), e*100)
			}
		}
		// The reduction must be genuine: the replay may fully
		// characterize at most RepsPerPhase*K intervals.
		if maxMeasured := 3 * rr.Phases.K; len(rr.Measured) > maxMeasured {
			t.Errorf("%s: %d measured intervals for K=%d (max %d)", name, len(rr.Measured), rr.Phases.K, maxMeasured)
		}
	}
}

// TestReducedSpeedupRegistry is the cost acceptance test: across the
// tracked set, the two-pass reduced pipeline must be at least 2x
// faster end to end than exact full profiling at matched interval
// counts. The measured margin is ~3x, so the assertion tolerates
// loaded CI runners without going soft on the claim.
func TestReducedSpeedupRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock speedup measurement skipped in -short mode")
	}
	var fullTime, redTime time.Duration
	for _, run := range reducedRegistryRuns(t) {
		fullTime += run.exactTime
		redTime += run.reducedTime
	}
	speedup := fullTime.Seconds() / redTime.Seconds()
	t.Logf("reduced profiling effective speedup: %.2fx (full %v, reduced %v)", speedup, fullTime, redTime)
	if speedup < 2 {
		t.Errorf("effective speedup %.2fx is below the 2x acceptance bound", speedup)
	}
}

// TestReducedRegistryScaleSmoke runs the sharded reduced pipeline over
// a 24-benchmark slice of the registry: every result must carry a
// clustered vocabulary, a bounded measurement plan, consistent cost
// accounting and non-trivial extrapolations.
func TestReducedRegistryScaleSmoke(t *testing.T) {
	all := Benchmarks()
	if len(all) < 24 {
		t.Fatalf("registry has only %d benchmarks", len(all))
	}
	bs := all[:24]
	cfg := ReducedPipelineConfig{
		Reduced: ReducedConfig{Phase: PhaseConfig{IntervalLen: 1_000, MaxIntervals: 20, MaxK: 4, Seed: 2006}},
	}
	rep, err := Run(context.Background(), Request{Benchmarks: bs, Reduced: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	results := rep.Reduced
	if len(results) != len(bs) {
		t.Fatalf("got %d results for %d benchmarks", len(results), len(bs))
	}
	for i, r := range results {
		res := r.Result
		if r.Benchmark.Name() != bs[i].Name() {
			t.Errorf("result %d is %s, want %s (input order)", i, r.Benchmark.Name(), bs[i].Name())
		}
		if res.Phases.K < 1 || len(res.Measured) == 0 {
			t.Errorf("%s: K=%d with %d measured intervals", bs[i].Name(), res.Phases.K, len(res.Measured))
		}
		if res.MeasuredInsts+res.SkippedInsts != res.TotalInsts() {
			t.Errorf("%s: measured %d + skipped %d != total %d",
				bs[i].Name(), res.MeasuredInsts, res.SkippedInsts, res.TotalInsts())
		}
		if !res.HasHPC {
			t.Errorf("%s: HPC missing from default pipeline", bs[i].Name())
		}
		sum := 0.0
		for _, v := range res.Chars {
			sum += v
		}
		if sum == 0 {
			t.Errorf("%s: extrapolated characteristic vector is all zero", bs[i].Name())
		}
	}
	// The pipeline must be deterministic across worker counts: one
	// worker and many workers give bit-identical extrapolations.
	serialRep, err := Run(context.Background(), Request{Benchmarks: bs[:4], Reduced: &ReducedPipelineConfig{Reduced: cfg.Reduced, Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	parallelRep, err := Run(context.Background(), Request{Benchmarks: bs[:4], Reduced: &ReducedPipelineConfig{Reduced: cfg.Reduced, Workers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	serial, parallel := serialRep.Reduced, parallelRep.Reduced
	for i := range serial {
		if serial[i].Result.Chars != parallel[i].Result.Chars {
			t.Errorf("%s: worker count changes the extrapolation", serial[i].Benchmark.Name())
		}
	}
}

// TestProfileReducedFeedsAnalysisStack: reduced profiles, as
// ProfileResults, must be accepted by the whole analysis stack — the
// reduced pipeline is a drop-in cheap front end for NewSpace/Analyze.
func TestProfileReducedFeedsAnalysisStack(t *testing.T) {
	cfg := ReducedConfig{Phase: PhaseConfig{IntervalLen: 1_000, MaxIntervals: 20, MaxK: 4, Seed: 2006}}
	var results []ProfileResult
	for _, name := range []string{"MiBench/sha/large", "SPEC2000/gzip/program", "CommBench/drr/drr"} {
		b, err := BenchmarkByName(name)
		if err != nil {
			t.Fatal(err)
		}
		rr, err := reduceOne(b, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pr := ProfileResult{Benchmark: b, Chars: rr.Chars, HPC: rr.HPC, Insts: rr.TotalInsts()}
		if pr.Insts == 0 {
			t.Fatalf("%s: reduced profile covers zero instructions", name)
		}
		results = append(results, pr)
	}
	s := NewSpace(results)
	if s.Len() != 3 {
		t.Fatalf("space has %d benchmarks", s.Len())
	}
	if rho := s.DistanceCorrelation(); rho < -1 || rho > 1 {
		t.Errorf("distance correlation %g out of range", rho)
	}
}
