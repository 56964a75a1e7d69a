package mica

import (
	"context"
	"fmt"

	micachar "mica/internal/mica"
	"mica/internal/phases"
	"mica/internal/trace"
)

// Phase-analysis re-exports: interval-based phase classification, the
// extension the paper's related-work section connects to SimPoint-style
// reduced simulation.
type (
	// PhaseConfig parameterizes AnalyzePhases.
	PhaseConfig = phases.Config
	// PhaseResult is a benchmark's phase decomposition.
	PhaseResult = phases.Result
	// PhaseInterval is one characterized trace interval.
	PhaseInterval = phases.Interval
	// PhaseRepresentative is one phase's weighted simulation point.
	PhaseRepresentative = phases.Representative
	// PhaseJointResult is a shared cross-benchmark phase vocabulary:
	// many benchmarks' intervals clustered once in one space.
	PhaseJointResult = phases.JointResult
	// PhaseRowRef is the provenance of one joint-matrix row.
	PhaseRowRef = phases.RowRef
	// PhaseJointRepresentative is one shared phase's weighted
	// cross-benchmark simulation point.
	PhaseJointRepresentative = phases.JointRepresentative
)

// AnalyzePhases splits one benchmark's execution into fixed-length
// intervals, characterizes each with the Table II metrics as the VM
// runs (streaming: one profiler reused across all intervals), clusters
// the intervals into phases (k-means + BIC) and selects one weighted
// representative interval per phase.
func AnalyzePhases(b Benchmark, cfg PhaseConfig) (*PhaseResult, error) {
	if err := cfg.Options.Validate(); err != nil {
		return nil, err
	}
	m, err := b.Source()
	if err != nil {
		return nil, err
	}
	// Only zero fields default: the zero Options value already means
	// "all 47 characteristics, memory dependencies tracked, default PPM
	// order", so a caller's Subset, NoMemDeps or explicit PPMOrder is
	// honored rather than clobbered.
	return phases.Analyze(m, cfg)
}

// PhasePipelineConfig parameterizes a Run of the phase pipelines.
type PhasePipelineConfig struct {
	// Phase is the per-benchmark phase-analysis configuration.
	Phase PhaseConfig
	// Workers bounds pipeline parallelism (default: GOMAXPROCS). Each
	// worker owns one profiler whose analyzer tables are pooled across
	// every benchmark that worker processes.
	Workers int
	// Progress, when non-nil, is called after each benchmark completes.
	Progress func(done, total int, name string)
}

// BenchmarkPhases is one benchmark's phase decomposition in a
// registry-wide pipeline run.
type BenchmarkPhases struct {
	Benchmark Benchmark
	Result    *PhaseResult
}

// runPhases is Run's in-memory per-benchmark phase path: each
// benchmark's intervals are characterized and clustered on its own.
// results[i].Result is non-nil exactly when bs[i] succeeded.
func runPhases(ctx context.Context, bs []Benchmark, cfg PhasePipelineConfig) (*Report, error) {
	results := make([]BenchmarkPhases, len(bs))
	for i := range results {
		results[i].Benchmark = bs[i]
	}
	err := phasePipelineCtx(ctx, bs, cfg, "phase analysis of", func(m trace.Source, prof *micachar.Profiler, i int) error {
		res, err := phases.AnalyzeWith(m, prof, cfg.Phase)
		if err != nil {
			return err
		}
		results[i].Result = res
		return nil
	})
	return &Report{Phases: results}, err
}

// phasePipelineCtx is the shared sharded front half of every phase
// pipeline: it instantiates each benchmark on a fixed worker pool, one
// pooled profiler per worker (built once, Reset between intervals and
// benchmarks by the callee), and calls analyze for each, with fanOut's
// failure, cancellation and progress contract. Both the per-benchmark
// and joint pipelines run through it, so pooling fixes land in one
// place. what reads like "phase analysis of" — it is spliced between
// "mica:" and the benchmark name.
func phasePipelineCtx(ctx context.Context, bs []Benchmark, cfg PhasePipelineConfig, what string,
	analyze func(m trace.Source, prof *micachar.Profiler, i int) error) error {
	newProf := func() *micachar.Profiler { return micachar.NewProfiler(cfg.Phase.Options) }
	return fanOut(ctx, bs, cfg.Workers, cfg.Progress, what, newProf, func(prof *micachar.Profiler, i int) error {
		m, err := bs[i].Source()
		if err != nil {
			return err
		}
		return analyze(m, prof, i)
	})
}

// runPhasesJoint is Run's in-memory joint phase path: every
// benchmark's intervals are characterized by the sharded pooled
// pipeline (no per-benchmark clustering), then ALL intervals are
// concatenated into one provenance-indexed matrix and clustered once.
// On a single benchmark it is bit-identical to AnalyzePhases.
func runPhasesJoint(ctx context.Context, bs []Benchmark, cfg PhasePipelineConfig) (*Report, error) {
	named := make([]phases.BenchmarkIntervals, len(bs))
	err := phasePipelineCtx(ctx, bs, cfg, "characterization of", func(m trace.Source, prof *micachar.Profiler, i int) error {
		res, err := phases.CharacterizeWith(m, prof, cfg.Phase)
		if err != nil {
			return err
		}
		named[i] = phases.BenchmarkIntervals{Name: bs[i].Name(), Result: res}
		return nil
	})
	if err != nil {
		return nil, err
	}
	j, err := phases.AnalyzeJoint(named, cfg.Phase)
	if err != nil {
		return nil, err
	}
	return &Report{Joint: j}, nil
}

// Reduced (phase-aware) profiling re-exports: the SimPoint-style
// two-pass pipeline that pays the full 47-characteristic + EV56/EV67
// characterization only on per-phase representative intervals.
type (
	// ReducedConfig parameterizes reduced profiling.
	ReducedConfig = phases.ReducedConfig
	// ReducedResult is one benchmark's reduced profile: the cheap-pass
	// phase decomposition, the fully measured representatives, and the
	// extrapolated whole-run vectors.
	ReducedResult = phases.ReducedResult
	// PhaseExactProfile is the matched-grid full profile the reduced
	// extrapolation is evaluated (and the tracked speedup measured)
	// against.
	PhaseExactProfile = phases.ExactProfile
	// PhaseJointReduced is a joint-vocabulary reduction: shared
	// representatives measured once, every member benchmark
	// extrapolated from them.
	PhaseJointReduced = phases.JointReduced
)

// KeyCharacteristics returns the paper's 8 GA-selected key
// characteristics (Table IV) — the default cheap-pass subset of the
// reduced pipeline.
func KeyCharacteristics() []int { return phases.KeyCharacteristics() }

// KeySubset returns KeyCharacteristics as an Options.Subset mask.
func KeySubset() []bool { return phases.KeySubset() }

// ProfileExact measures the exact matched-grid full profile of one
// benchmark: the same interval grid as reduced profiling, with the full
// characterization paid on every interval. It is the differential
// oracle reduced extrapolations are scored against (bench/'s reduced
// workload checks its worst error with it) and the cost baseline of
// BenchmarkReducedPipeline.
func ProfileExact(b Benchmark, cfg ReducedConfig) (*PhaseExactProfile, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m, err := b.Source()
	if err != nil {
		return nil, err
	}
	ex, err := phases.CharacterizeExact(m, cfg)
	if err != nil {
		return nil, fmt.Errorf("mica: exact grid profiling of %s: %w", b.Name(), err)
	}
	return ex, nil
}

// ReducedPipelineConfig parameterizes a Run of the reduced pipelines.
type ReducedPipelineConfig struct {
	// Reduced is the per-benchmark reduced-profiling configuration.
	Reduced ReducedConfig
	// Workers bounds pipeline parallelism (default: GOMAXPROCS).
	Workers int
	// Progress, when non-nil, is called after each benchmark completes.
	Progress func(done, total int, name string)
}

// BenchmarkReduced is one benchmark's reduced profile in a
// registry-wide pipeline run.
type BenchmarkReduced struct {
	Benchmark Benchmark
	Result    *ReducedResult
}

// runReduced is Run's in-memory per-benchmark reduced path, sharded
// over the fixed worker pool. Each worker pools one cheap-pass and one
// full-pass profiler across all the benchmarks it processes (Reset
// between intervals and benchmarks), so analyzer tables are built
// twice per worker rather than twice per benchmark.
// results[i].Result is non-nil exactly when bs[i] succeeded.
func runReduced(ctx context.Context, bs []Benchmark, cfg ReducedPipelineConfig) (*Report, error) {
	rcfg := cfg.Reduced.WithDefaults()
	results := make([]BenchmarkReduced, len(bs))
	for i := range results {
		results[i].Benchmark = bs[i]
	}
	// Per-worker state: the cheap-pass and the full-pass profiler.
	newProfs := func() [2]*micachar.Profiler {
		return [2]*micachar.Profiler{
			micachar.NewProfiler(rcfg.CheapConfig().Options),
			micachar.NewProfiler(rcfg.FullOptions),
		}
	}
	err := fanOut(ctx, bs, cfg.Workers, cfg.Progress, "reduced profiling of", newProfs, func(profs [2]*micachar.Profiler, i int) error {
		cheap, err := bs[i].Source()
		if err != nil {
			return err
		}
		replay, err := bs[i].Source()
		if err != nil {
			return err
		}
		res, err := phases.AnalyzeReducedWith(cheap, replay, profs[0], profs[1], rcfg)
		if err != nil {
			return err
		}
		results[i].Result = res
		return nil
	})
	return &Report{Reduced: results}, err
}

// runReducedJoint is Run's in-memory joint reduced path: every
// benchmark's intervals are characterized by the cheap sampled pass
// (sharded, pooled), ALL intervals are clustered once into a shared
// phase vocabulary, and only the shared representative intervals are
// measured fully — each benchmark's whole-run vectors are extrapolated
// from the shared measurements weighted by its occupancy row. This is
// the cross-benchmark redundancy payoff: K full interval measurements
// for the whole set instead of K per benchmark.
func runReducedJoint(ctx context.Context, bs []Benchmark, cfg ReducedPipelineConfig) (*Report, error) {
	rcfg := cfg.Reduced.WithDefaults()
	named := make([]phases.BenchmarkIntervals, len(bs))
	pcfg := PhasePipelineConfig{Phase: rcfg.CheapConfig(), Workers: cfg.Workers, Progress: cfg.Progress}
	err := phasePipelineCtx(ctx, bs, pcfg, "reduced characterization of", func(m trace.Source, prof *micachar.Profiler, i int) error {
		res, err := phases.CharacterizeReducedWith(m, prof, rcfg)
		if err != nil {
			return err
		}
		named[i] = phases.BenchmarkIntervals{Name: bs[i].Name(), Result: res}
		return nil
	})
	if err != nil {
		return nil, err
	}
	j, err := phases.AnalyzeJoint(named, rcfg.CheapConfig())
	if err != nil {
		return nil, err
	}
	jr, err := phases.ReplayJoint(j, func(bi int) (trace.Source, error) {
		return bs[bi].Source()
	}, rcfg)
	if err != nil {
		return nil, fmt.Errorf("mica: joint reduced replay: %w", err)
	}
	return &Report{JointReduced: jr}, nil
}
