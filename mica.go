// Package mica is a from-scratch Go reproduction of "Comparing Benchmarks
// Using Key Microarchitecture-Independent Characteristics" (Hoste &
// Eeckhout, IISWC 2006).
//
// The package exposes the complete pipeline of the paper:
//
//   - a 122-benchmark workload registry spanning six suites (Table I),
//     executed on a built-in Alpha-style ISA interpreter;
//   - the 47 microarchitecture-independent characteristics of Table II,
//     measured in one pass over the dynamic instruction stream;
//   - a hardware-performance-counter characterization from
//     cycle-approximate EV56 (in-order) and EV67 (out-of-order) machine
//     models;
//   - the distance/ROC analysis of the HPC-vs-inherent-behaviour pitfall
//     (Figure 1, Table III, Figure 4);
//   - correlation elimination and genetic-algorithm selection of key
//     characteristics (Figure 5, Table IV); and
//   - k-means/BIC clustering with kiviat rendering (Figure 6).
//
// Interval-based phase analysis and reduced (key-characteristic)
// profiling extend it; Run is their one entry point.
//
// Quick start:
//
//	res, err := mica.ProfileBenchmarksCtx(ctx, mica.Benchmarks(), mica.DefaultConfig())
//	...
//	an := mica.Analyze(res, mica.DefaultAnalysisConfig())
//	fmt.Printf("distance correlation rho = %.2f\n", an.Rho)
package mica

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	micachar "mica/internal/mica"
	"mica/internal/pool"
	"mica/internal/suites"
	"mica/internal/trace"
	"mica/internal/uarch"
)

// Re-exported core types. The implementation lives in internal packages;
// these aliases are the public names.
type (
	// Vector is the 47-dimensional microarchitecture-independent
	// characteristic vector (Table II).
	Vector = micachar.Vector
	// HPCVector is the 13-dimensional hardware-performance-counter
	// metric vector (Section III-B plus instruction mix).
	HPCVector = uarch.HPCVector
	// Benchmark is one Table I registry entry.
	Benchmark = suites.Benchmark
)

// NumChars is the number of microarchitecture-independent characteristics.
const NumChars = micachar.NumChars

// NumHPCMetrics is the number of HPC metrics.
const NumHPCMetrics = uarch.NumHPCMetrics

// NumHPCCounterMetrics is the number of true counter metrics used for the
// HPC distance space (the instruction-mix tail is excluded, as in the
// paper's Section III-B characterization).
const NumHPCCounterMetrics = uarch.NumHPCCounterMetrics

// CharName returns the name of characteristic i (Table II order).
func CharName(i int) string { return micachar.CharName(i) }

// CharCategory returns the Table II category of characteristic i.
func CharCategory(i int) string { return micachar.CharCategory(i) }

// CharNames returns all 47 characteristic names.
func CharNames() []string { return micachar.CharNames() }

// HPCMetricName returns the name of HPC metric i.
func HPCMetricName(i int) string { return uarch.HPCMetricName(i) }

// Benchmarks returns the 122 benchmarks of Table I.
func Benchmarks() []Benchmark { return suites.All() }

// BenchmarksBySuite returns one suite's benchmarks.
func BenchmarksBySuite(suite string) []Benchmark { return suites.BySuite(suite) }

// BenchmarkByName resolves a canonical "suite/program/input" name.
func BenchmarkByName(name string) (Benchmark, error) { return suites.ByName(name) }

// TraceBenchmark builds a benchmark backed by the recorded trace file
// at path instead of an embedded kernel; it flows through Profile, the
// phase pipelines and the store-backed pipelines exactly like a
// registry entry. name may be a canonical "suite/program/input"
// identifier; anything else is namespaced under the "trace" suite.
func TraceBenchmark(name, path string) Benchmark { return suites.TraceBenchmark(name, path) }

// RecordTrace runs benchmark b for up to budget instructions (<= 0
// means until it halts) while recording its dynamic instruction stream
// to the trace file at path, and returns the number of instructions
// recorded. The file is written durably (tmp, fsync, rename); a
// failed recording leaves nothing at path. The recorded trace replays
// bit-identically through every pipeline via TraceBenchmark.
func RecordTrace(b Benchmark, path string, budget uint64) (uint64, error) {
	src, err := b.Source()
	if err != nil {
		return 0, err
	}
	return trace.Record(src, path, budget)
}

// ValidateTrace decodes an in-memory trace image end to end — header,
// block CRCs, every event record — and returns its event count. It is
// the full-strength admission check services run on uploaded traces
// before persisting them: a trace that validates replays without
// error.
func ValidateTrace(data []byte) (uint64, error) { return trace.Validate(data) }

// SaveTrace durably persists an already encoded trace image to path
// (tmp, fsync, rename), after checking that it carries a current trace
// header. Combined with ValidateTrace it is the upload persistence
// path; recorded files from RecordTrace are already durable.
func SaveTrace(path string, data []byte) error { return trace.SaveBytes(path, data) }

// SuiteNames lists the six suite names in Table I order.
func SuiteNames() []string {
	out := make([]string, len(suites.SuiteNames))
	copy(out, suites.SuiteNames)
	return out
}

// Config controls benchmark profiling.
type Config struct {
	// InstBudget is the dynamic instruction count per benchmark
	// (default 300k). The paper instruments complete executions of
	// billions of instructions; the reproduction uses fixed-length
	// traces of the same programs.
	InstBudget uint64
	// PPMOrder is the maximum PPM predictor order (default 8).
	PPMOrder int
	// NoMemDeps makes the idealized ILP model ignore store-to-load
	// dependencies through memory. The field is inverted so that the
	// zero Config value matches the documented default (dependencies
	// honored): Profile(b, Config{InstBudget: n}) measures exactly what
	// Profile(b, DefaultConfig()) does at that budget.
	NoMemDeps bool
	// Subset restricts measurement to selected characteristics (nil
	// means all 47). Entire analyzers are skipped when none of their
	// characteristics are selected — the measurement saving of the
	// paper's key-characteristic methodology.
	Subset []bool
	// SkipHPC disables the machine models (useful when only the
	// microarchitecture-independent vector is needed).
	SkipHPC bool
	// Workers bounds profiling parallelism in ProfileBenchmarksCtx
	// (default: GOMAXPROCS).
	Workers int
	// Progress, when non-nil, is called after each benchmark completes
	// during ProfileBenchmarksCtx.
	Progress func(done, total int, name string)
}

// DefaultConfig returns the configuration used for the paper
// reproduction experiments.
func DefaultConfig() Config {
	return Config{
		InstBudget: 300_000,
		PPMOrder:   micachar.DefaultPPMOrder,
	}
}

func (c Config) withDefaults() Config {
	if c.InstBudget == 0 {
		c.InstBudget = 300_000
	}
	if c.PPMOrder == 0 {
		c.PPMOrder = micachar.DefaultPPMOrder
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// options returns the profiler options cfg measures with.
func (c Config) options() micachar.Options {
	return micachar.Options{NoMemDeps: c.NoMemDeps, PPMOrder: c.PPMOrder, Subset: c.Subset}
}

// ProfileResult is one benchmark's measurement in both workload spaces.
type ProfileResult struct {
	Benchmark Benchmark
	// Chars is the microarchitecture-independent vector.
	Chars Vector
	// HPC is the machine-model counter vector (zero when SkipHPC).
	HPC HPCVector
	// Insts is the number of dynamic instructions profiled.
	Insts uint64
}

// Profile measures one benchmark under cfg.
func Profile(b Benchmark, cfg Config) (ProfileResult, error) {
	if err := cfg.options().Validate(); err != nil {
		return ProfileResult{}, err
	}
	cfg = cfg.withDefaults()
	m, err := b.Source()
	if err != nil {
		return ProfileResult{}, err
	}
	prof := micachar.NewProfiler(cfg.options())
	observers := trace.Multi{prof}
	var hpc *uarch.HPCProfiler
	if !cfg.SkipHPC {
		hpc = uarch.NewHPCProfiler()
		observers = append(observers, hpc)
	}
	n, err := m.Run(cfg.InstBudget, observers)
	if err != nil && err != trace.ErrBudget {
		return ProfileResult{}, fmt.Errorf("mica: running %s: %w", b.Name(), err)
	}
	res := ProfileResult{Benchmark: b, Chars: prof.Vector(), Insts: n}
	if hpc != nil {
		res.HPC = hpc.Vector()
	}
	return res, nil
}

// ProfileBenchmarksCtx measures the given benchmarks in parallel,
// returning results in input order. Parallelism is a fixed pool of
// cfg.Workers goroutines pulling from a work queue (internal/pool).
// One failing — or panicking — benchmark never stops the others. Every
// failure is wrapped with the offending benchmark's name and all of
// them are joined into the returned error; results[i] is valid exactly
// when no error names bs[i] (failed entries are zero). Cancelling ctx
// stops dispatching new benchmarks, lets in-flight ones drain, and
// folds ctx.Err() into the returned error; benchmarks never dispatched
// are left zero without an error of their own.
func ProfileBenchmarksCtx(ctx context.Context, bs []Benchmark, cfg Config) ([]ProfileResult, error) {
	if err := cfg.options().Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	results := make([]ProfileResult, len(bs))
	err := fanOut(ctx, bs, cfg.Workers, cfg.Progress, "profiling", nil, func(_ struct{}, i int) error {
		var err error
		results[i], err = Profile(bs[i], cfg)
		return err
	})
	return results, err
}

// fanOut is the one way the pipelines spread benchmarks over workers:
// it runs item(state, i) for every bs[i] on pool.RunCtx, under the
// pool's error contract — isolation (one bad benchmark never stops the
// others), attribution (every failure, panics included, is wrapped
// "mica: <what> <benchmark>" by namePoolErrors), collection (all
// failures joined) and prompt cancellation with in-flight drain. Each
// worker builds its state once, with newState, before its first item
// and reuses it for every later one (nil newState: the zero S), so
// expensive per-worker state — a profiler's analyzer tables — is built
// at most once per worker. progress, when non-nil, is called after
// each benchmark that succeeds. workers <= 0 means GOMAXPROCS.
func fanOut[S any](ctx context.Context, bs []Benchmark, workers int, progress func(done, total int, name string),
	what string, newState func() S, item func(state S, i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(bs) {
		workers = len(bs)
	}
	states := make([]S, workers)
	built := make([]bool, workers)
	var done int
	var mu sync.Mutex

	err := pool.RunCtx(ctx, len(bs), workers, func(_ context.Context, worker, i int) error {
		if newState != nil && !built[worker] {
			states[worker], built[worker] = newState(), true
		}
		if err := item(states[worker], i); err != nil {
			return err
		}
		if progress != nil {
			mu.Lock()
			done++
			progress(done, len(bs), bs[i].Name())
			mu.Unlock()
		}
		return nil
	})
	return namePoolErrors(err, what, func(i int) string { return bs[i].Name() })
}

// namePoolErrors rewraps a pool.RunCtx error so that every per-item
// failure — error returns and recovered panics alike — names the
// benchmark it belongs to, which the pool itself cannot do (it only
// knows item indices). Non-item parts (the context error on
// cancellation) pass through unchanged, and the *pool.ItemError stays
// in each wrapped chain so errors.As keeps working.
func namePoolErrors(err error, what string, name func(i int) string) error {
	if err == nil {
		return nil
	}
	var parts []error
	walkPoolError(err, func(e error, ie *pool.ItemError) {
		if ie != nil {
			e = fmt.Errorf("mica: %s %s: %w", what, name(ie.Item), e)
		}
		parts = append(parts, e)
	})
	return errors.Join(parts...)
}

// failedItems collects the item indices a pool error attributes
// failures to — the set a partial-result pipeline uses to tell failed
// items (the pool reported them) from skipped ones (never dispatched
// after cancellation). It works on raw pool.RunCtx errors and on
// namePoolErrors-rewrapped ones alike.
func failedItems(err error) map[int]bool {
	if err == nil {
		return nil
	}
	failed := make(map[int]bool)
	walkPoolError(err, func(_ error, ie *pool.ItemError) {
		if ie != nil {
			failed[ie.Item] = true
		}
	})
	return failed
}

// walkPoolError calls visit for every leaf of a (possibly joined)
// pool error, with the *pool.ItemError the leaf carries, or nil for a
// leaf that is not a per-item failure (the context error).
func walkPoolError(err error, visit func(e error, ie *pool.ItemError)) {
	if joined, ok := err.(interface{ Unwrap() []error }); ok {
		for _, sub := range joined.Unwrap() {
			walkPoolError(sub, visit)
		}
		return
	}
	var ie *pool.ItemError
	errors.As(err, &ie)
	visit(err, ie)
}
