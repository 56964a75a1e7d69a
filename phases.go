package mica

import (
	"fmt"

	"mica/internal/phases"
)

// Phase-analysis re-exports: interval-based phase classification, the
// extension the paper's related-work section connects to SimPoint-style
// reduced simulation.
type (
	// PhaseConfig parameterizes phase analysis.
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
