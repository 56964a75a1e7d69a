package mica

import (
	"context"
	"errors"
)

// Request names one interval-pipeline run: the benchmarks, the
// pipeline (exactly one of Phases and Reduced), whether their
// intervals are clustered per benchmark or jointly into one shared
// phase vocabulary, and whether the characterization goes through an
// interval-vector store. Every setting lives in the pipeline and store
// configurations; Request itself only chooses among the eight paths.
type Request struct {
	// Benchmarks are the workloads to analyze, in result order. A
	// recorded trace enters as TraceBenchmark(name, path).
	Benchmarks []Benchmark
	// Joint clusters every benchmark's intervals once into a shared
	// phase vocabulary instead of clustering each benchmark alone.
	Joint bool
	// Phases selects interval-based phase analysis.
	Phases *PhasePipelineConfig
	// Reduced selects two-pass reduced profiling.
	Reduced *ReducedPipelineConfig
	// Store routes the characterization through the interval-vector
	// store in Store.Dir. The zero value runs in memory.
	Store StoreOptions
}

// Report is the result of Run. On success exactly one result field is
// set: Phases or Reduced for a per-benchmark request, Joint or
// JointReduced for a joint one. Store carries the build accounting of
// a store-backed run.
type Report struct {
	Phases       []BenchmarkPhases
	Joint        *PhaseJointResult
	Reduced      []BenchmarkReduced
	JointReduced *PhaseJointReduced
	Store        *StoreBuildStats
}

// Run executes one interval pipeline: phase analysis or reduced
// profiling, per benchmark or joint, in memory or through the
// interval-vector store. Benchmarks are sharded over a fixed worker
// pool, one pooled profiler per worker, and results come back in input
// order.
//
// Failures are isolated per benchmark, named, and joined into the
// returned error; cancelling ctx stops dispatching new benchmarks and
// drains in-flight ones. A per-benchmark request still returns its
// report on failure, with a nil Result exactly for the benchmarks that
// did not complete (the store-backed form returns no results when the
// characterization itself failed). A joint result is never built over
// a shrunken benchmark set, so any failure leaves it nil. A
// store-backed request returns its build stats whenever the build
// started, and commits every finished shard even on failure, so an
// Incremental rerun resumes from them. The report is nil only when
// there is nothing to report.
//
// Progress, when configured, is called once per benchmark as it
// completes: after its analysis, or after its replay for the reduced
// per-benchmark paths. A store-backed phase or joint build reports
// only the benchmarks it characterizes, not the reused ones.
func Run(ctx context.Context, req Request) (*Report, error) {
	if (req.Phases == nil) == (req.Reduced == nil) {
		return nil, errors.New("mica: a request sets exactly one of Phases and Reduced")
	}
	opt := req.Store
	if opt.Dir == "" && opt != (StoreOptions{}) {
		return nil, errors.New("mica: store options need Store.Dir")
	}
	bs, inStore := req.Benchmarks, opt.Dir != ""
	switch {
	case req.Phases != nil && !req.Joint && !inStore:
		return runPhases(ctx, bs, *req.Phases)
	case req.Phases != nil && !req.Joint:
		return runPhasesStore(ctx, bs, *req.Phases, opt)
	case req.Phases != nil && !inStore:
		return runPhasesJoint(ctx, bs, *req.Phases)
	case req.Phases != nil:
		return runPhasesJointStore(ctx, bs, *req.Phases, opt)
	case !req.Joint && !inStore:
		return runReduced(ctx, bs, *req.Reduced)
	case !req.Joint:
		return runReducedStore(ctx, bs, *req.Reduced, opt)
	case !inStore:
		return runReducedJoint(ctx, bs, *req.Reduced)
	default:
		return runReducedJointStore(ctx, bs, *req.Reduced, opt)
	}
}

// storeFailure is the report of a store-backed run that failed before
// producing results: its build stats, or nil when the build never
// started.
func storeFailure(stats *StoreBuildStats) *Report {
	if stats == nil {
		return nil
	}
	return &Report{Store: stats}
}
