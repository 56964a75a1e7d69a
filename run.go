package mica

import (
	"context"
	"errors"
	"fmt"

	"mica/internal/ivstore"
	micachar "mica/internal/mica"
	"mica/internal/phases"
	"mica/internal/stats"
	"mica/internal/trace"
)

// Request names one interval-pipeline run: the benchmarks, the
// pipeline (exactly one of Phases and Reduced), whether their
// intervals are clustered per benchmark or jointly into one shared
// phase vocabulary, and whether the characterization goes through an
// interval-vector store. Every setting lives in the pipeline and store
// configurations; Request itself only chooses the analysis (one of
// four) and where its characterization is kept (memory or a store).
type Request struct {
	// Benchmarks are the workloads to analyze, in result order. A
	// recorded trace enters as TraceBenchmark(name, path). Names must
	// be distinct.
	Benchmarks []Benchmark
	// Joint clusters every benchmark's intervals once into a shared
	// phase vocabulary instead of clustering each benchmark alone.
	Joint bool
	// Phases selects interval-based phase analysis.
	Phases *PhasePipelineConfig
	// Reduced selects two-pass reduced profiling.
	Reduced *ReducedPipelineConfig
	// Store routes the characterization through the interval-vector
	// store in Store.Dir. The zero value keeps it in memory.
	Store StoreOptions
}

// Report is the result of Run. On success exactly one result field is
// set: Phases or Reduced for a per-benchmark request, Joint or
// JointReduced for a joint one. Store carries the build accounting of
// a store-backed run and is nil for an in-memory one.
type Report struct {
	Phases       []BenchmarkPhases
	Joint        *PhaseJointResult
	Reduced      []BenchmarkReduced
	JointReduced *PhaseJointReduced
	Store        *StoreBuildStats
}

// Run executes one interval pipeline: phase analysis or reduced
// profiling, per benchmark or joint. Every benchmark's intervals are
// first characterized into a shard source — kept in memory, or in the
// interval-vector store in Store.Dir — and the analysis then reads
// that source; each analysis has one implementation, whichever the
// source. Interval vectors are rounded to float32 as they are
// characterized, which the store encodes losslessly, so the two
// sources give the same bits. Benchmarks are sharded over a
// fixed worker pool, one pooled profiler per worker, and results come
// back in input order. Repeated benchmark names are rejected before
// any work.
//
// Failures are isolated per benchmark, named once, and joined into
// the returned error; cancelling ctx stops dispatching new benchmarks
// and drains in-flight ones. A per-benchmark request returns its
// report on failure too, with a nil Result exactly for the benchmarks
// that did not complete. A joint result is never built over a
// shrunken benchmark set, so any failure leaves it nil: an in-memory
// joint request then returns no report, a store-backed one a report
// holding only its build stats. A store-backed request commits every
// finished shard even on failure, so an Incremental rerun resumes from
// them. The report is nil only when there is nothing to report.
//
// Progress, when configured, is called once per benchmark as it
// completes: after its characterization, or, for the per-benchmark
// reduced request, after its replay. A store-backed build does not
// report the benchmarks whose shards it reuses.
func Run(ctx context.Context, req Request) (*Report, error) {
	if (req.Phases == nil) == (req.Reduced == nil) {
		return nil, errors.New("mica: a request sets exactly one of Phases and Reduced")
	}
	if req.Phases != nil {
		if err := req.Phases.Phase.Options.Validate(); err != nil {
			return nil, err
		}
	} else if err := req.Reduced.Reduced.Validate(); err != nil {
		return nil, err
	}
	opt := req.Store
	if opt.Dir == "" && opt != (StoreOptions{}) {
		return nil, errors.New("mica: store options need Store.Dir")
	}
	bs := req.Benchmarks
	names, err := distinctNames(bs)
	if err != nil {
		return nil, err
	}

	var c characterization
	if req.Phases != nil {
		c = phaseCharacterization(*req.Phases)
	} else {
		c = reducedCharacterization(*req.Reduced)
		if !req.Joint {
			c.cfg.Progress = nil // reported after the replay instead
		}
	}
	var (
		src   ivstore.Source
		st    *IVStore
		build *StoreBuildStats
	)
	if opt.Dir == "" {
		mem := ivstore.NewMem(names)
		err = characterizeShards(ctx, bs, c, mem)
		src = mem
	} else {
		st, build, err = characterizeToStoreCtx(ctx, bs, c, opt)
		if st == nil {
			return nil, err // the build never started
		}
		defer st.Close()
		src = st
	}

	rep := &Report{Store: build}
	switch {
	case req.Joint && err == nil:
		err = runJoint(ctx, rep, src, st, req, c)
	case !req.Joint && (ctx.Err() == nil || !errors.Is(err, ctx.Err())):
		// Every benchmark whose characterization completed is
		// analyzed, unless the characterization was cancelled.
		err = errors.Join(err, runPerBenchmark(ctx, rep, src, req))
	}
	if st != nil {
		build.Cache = st.CacheStats()
	}
	if req.Joint && err != nil {
		if build == nil {
			return nil, err
		}
		return &Report{Store: build}, err
	}
	return rep, err
}

// runPerBenchmark analyzes each benchmark alone from its shard in src:
// its phases are clustered, and for reduced profiling replayed with
// the full profiler.
func runPerBenchmark(ctx context.Context, rep *Report, src ivstore.Source, req Request) error {
	bs := req.Benchmarks
	if req.Phases != nil {
		cfg := req.Phases.Phase
		rep.Phases = make([]BenchmarkPhases, len(bs))
		for i := range bs {
			rep.Phases[i].Benchmark = bs[i]
		}
		return eachShard(ctx, src, bs, req.Phases.Workers, nil, "phase analysis of", nil,
			func(_ struct{}, i int, sd *ivstore.ShardData) (err error) {
				rep.Phases[i].Result, err = phases.ResultFromShard(sd, cfg)
				return err
			})
	}
	rcfg := req.Reduced.Reduced.WithDefaults()
	rep.Reduced = make([]BenchmarkReduced, len(bs))
	for i := range bs {
		rep.Reduced[i].Benchmark = bs[i]
	}
	newProf := func() *micachar.Profiler { return micachar.NewProfiler(rcfg.FullOptions) }
	return eachShard(ctx, src, bs, req.Reduced.Workers, req.Reduced.Progress, "reduced replay of", newProf,
		func(prof *micachar.Profiler, i int, sd *ivstore.ShardData) error {
			replay, err := bs[i].Source()
			if err != nil {
				return err
			}
			res, err := phases.ReplayReducedShard(replay, prof, sd, rcfg)
			if err != nil {
				return err
			}
			rep.Reduced[i].Result = res
			return nil
		})
}

// runJoint clusters every shard of src once into a shared vocabulary,
// under the configuration the shards were characterized with (c) —
// warm-started beside the store st when there is one and the request
// asks for it — and, for reduced profiling, measures only the shared
// representatives.
func runJoint(ctx context.Context, rep *Report, src ivstore.Source, st *IVStore, req Request, c characterization) error {
	var j *PhaseJointResult
	var err error
	if st != nil {
		j, rep.Store.WarmStarted, err = AnalyzePhasesJointOpenStoreCtx(ctx, st, c.cfg.Phase, c.cfg.Workers, req.Store.WarmStart)
	} else {
		j, _, err = phases.AnalyzeJointStore(ctx, src, c.cfg.Phase, c.cfg.Workers, nil)
	}
	if err != nil {
		return err
	}
	if req.Phases != nil {
		rep.Joint = j
		return nil
	}
	rep.JointReduced, err = phases.ReplayJointStore(j, func(bi int) (trace.Source, error) {
		return req.Benchmarks[bi].Source()
	}, req.Reduced.Reduced)
	if err != nil {
		return fmt.Errorf("mica: joint reduced replay: %w", err)
	}
	return nil
}

// characterization is how a pipeline characterizes each benchmark:
// the pooled-pipeline configuration (for reduced profiling, the cheap
// pass's, with defaults applied), the stamp its shards carry in a
// store, the error prefix naming a failed benchmark, and the
// characterization itself.
type characterization struct {
	cfg     PhasePipelineConfig
	hash    string
	what    string
	measure func(m trace.Source, prof *micachar.Profiler) (*phases.Result, error)
}

// phaseCharacterization characterizes every interval with cfg's full
// profiler.
func phaseCharacterization(cfg PhasePipelineConfig) characterization {
	cfg.Phase = cfg.Phase.WithDefaults()
	return characterization{cfg: cfg, hash: phaseConfigHash(cfg.Phase), what: "characterization of",
		measure: func(m trace.Source, prof *micachar.Profiler) (*phases.Result, error) {
			return phases.CharacterizeWith(m, prof, cfg.Phase)
		}}
}

// reducedCharacterization is the reduced pipeline's cheap pass: the
// sampled key-subset characterization.
func reducedCharacterization(cfg ReducedPipelineConfig) characterization {
	rcfg := cfg.Reduced.WithDefaults()
	return characterization{
		cfg:  PhasePipelineConfig{Phase: rcfg.CheapConfig(), Workers: cfg.Workers, Progress: cfg.Progress},
		hash: reducedStoreHash(rcfg), what: "reduced characterization of",
		measure: func(m trace.Source, prof *micachar.Profiler) (*phases.Result, error) {
			return phases.CharacterizeReducedWith(m, prof, rcfg)
		}}
}

// characterizeShards is the one characterization loop of the interval
// pipelines. It instantiates each of bs on a fixed worker pool, one
// profiler per worker (built once from c.cfg.Phase.Options and Reset
// between intervals and benchmarks by c.measure), characterizes it and
// writes its interval grid to w as the worker finishes — an in-memory
// ivstore.Mem or a building store — under fanOut's failure,
// cancellation and progress contract.
func characterizeShards(ctx context.Context, bs []Benchmark, c characterization,
	w interface {
		WriteShard(name string, insts []uint64, vecs *stats.Matrix) error
	}) error {
	newProf := func() *micachar.Profiler { return micachar.NewProfiler(c.cfg.Phase.Options) }
	return fanOut(ctx, bs, c.cfg.Workers, c.cfg.Progress, c.what, newProf, func(prof *micachar.Profiler, i int) error {
		m, err := bs[i].Source()
		if err != nil {
			return err
		}
		res, err := c.measure(m, prof)
		if err != nil {
			return err
		}
		insts := make([]uint64, len(res.Intervals))
		for ii, iv := range res.Intervals {
			insts[ii] = iv.Insts
		}
		return w.WriteShard(bs[i].Name(), insts, res.Vectors)
	})
}

// eachShard is the per-benchmark back half of the pipelines: through
// fanOut, it hands analyze each bs[i]'s shard in src, read once, with
// the calling worker's state (built by newState, see fanOut). A
// benchmark src holds no shard for did not complete its
// characterization, whose error already names it: it gets no analysis
// and no progress call.
func eachShard[S any](ctx context.Context, src ivstore.Source, bs []Benchmark, workers int,
	progress func(done, total int, name string), what string, newState func() S,
	analyze func(state S, i int, sd *ivstore.ShardData) error) error {
	shardIdx := make(map[string]int)
	for i, sh := range src.Shards() {
		shardIdx[sh.Name] = i
	}
	return fanOut(ctx, bs, workers, progress, what, newState, func(state S, i int) error {
		si, ok := shardIdx[bs[i].Name()]
		if !ok {
			return errSkip
		}
		sd, err := src.ReadShard(si)
		if err != nil {
			return err
		}
		return analyze(state, i, sd)
	})
}

// distinctNames returns the names of bs, in order, and rejects a list
// that names one benchmark twice: shards are keyed by name, so the two
// would collide.
func distinctNames(bs []Benchmark) ([]string, error) {
	names := make([]string, len(bs))
	seen := make(map[string]bool, len(bs))
	for i, b := range bs {
		if seen[b.Name()] {
			return nil, fmt.Errorf("mica: benchmark %s is listed twice", b.Name())
		}
		names[i], seen[b.Name()] = b.Name(), true
	}
	return names, nil
}
