package mica

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"

	"mica/internal/ivstore"
	micachar "mica/internal/mica"
	"mica/internal/phases"
	"mica/internal/trace"
)

// Store-backed reduced profiling: the cheap sampled pass's interval
// vectors go through the interval-vector store (one shard per
// benchmark, same incremental reuse and crash-safety as the plain
// store pipeline), and the expensive replay reads them back through
// the store's decoded-shard cache. The shards are stamped with a
// reduced-specific configuration hash, so plain and reduced stores in
// the same directory lineage never cross-adopt each other's shards.

// reducedStoreHash is the configuration stamp of a reduced cheap-pass
// shard: the cheap characterization's phase stamp composed with the
// sampling fraction (the two inputs that shape the stored vectors) and
// a reduced-pipeline salt keeping it disjoint from phaseConfigHash
// even for SampleFrac == 1. cfg must already have its defaults
// applied.
func reducedStoreHash(cfg ReducedConfig) string {
	h := sha256.New()
	fmt.Fprintf(h, "mica-reduced-store-v1\n%s\n%s\n",
		phaseConfigHash(cfg.CheapConfig()), strconv.FormatFloat(cfg.SampleFrac, 'g', -1, 64))
	return hex.EncodeToString(h.Sum(nil))
}

// CharacterizeReducedToStoreCtx runs the reduced pipeline's cheap
// sampled pass over every benchmark into an on-disk interval-vector
// store — CharacterizeToStoreCtx with the sampled key-subset
// characterization instead of the full one. The stored vectors keep
// the full characteristic width (columns outside the subset are
// exactly zero), so the joint clustering machinery reads reduced
// stores unchanged. Reuse, fault isolation and partial commits follow
// CharacterizeToStoreCtx's contract.
func CharacterizeReducedToStoreCtx(ctx context.Context, bs []Benchmark, cfg ReducedPipelineConfig, opt StoreOptions) (*IVStore, *StoreBuildStats, error) {
	if err := cfg.Reduced.Validate(); err != nil {
		return nil, nil, err
	}
	rcfg := cfg.Reduced.WithDefaults()
	pcfg := PhasePipelineConfig{Phase: rcfg.CheapConfig(), Workers: cfg.Workers, Progress: cfg.Progress}
	return characterizeToStoreCtx(ctx, bs, pcfg, opt, reducedStoreHash(rcfg), "reduced store characterization of",
		func(m trace.Source, prof *micachar.Profiler) (*phases.Result, error) {
			return phases.CharacterizeReducedWith(m, prof, rcfg)
		})
}

// AnalyzeReducedStoreCtx is Run's store-backed per-benchmark reduced
// path as a function: the reduced pipeline with Store set to opt,
// whose Dir must name the store.
func AnalyzeReducedStoreCtx(ctx context.Context, bs []Benchmark, cfg ReducedPipelineConfig, opt StoreOptions) ([]BenchmarkReduced, *StoreBuildStats, error) {
	if opt.Dir == "" {
		return nil, nil, errors.New("mica: store characterization needs a directory")
	}
	rep, err := Run(ctx, Request{Benchmarks: bs, Reduced: &cfg, Store: opt})
	if rep == nil {
		return nil, nil, err
	}
	return rep.Reduced, rep.Store, err
}

// runReducedStore is Run's store-backed per-benchmark reduced path:
// the cheap pass lands in (or is reused from) the store in opt.Dir,
// then each benchmark's phases are clustered from its stored shard and
// replayed with the full profiler. With opt.Incremental, an unchanged
// benchmark skips its cheap pass entirely — only the replay (whose
// cost the reduction already bounded to a few intervals per phase) is
// paid again. Progress reports each benchmark once, after its replay,
// as the in-memory path does. A cheap-pass failure returns no results;
// otherwise results[i].Result is non-nil exactly when bs[i] made it
// through both passes.
func runReducedStore(ctx context.Context, bs []Benchmark, cfg ReducedPipelineConfig, opt StoreOptions) (*Report, error) {
	rcfg := cfg.Reduced.WithDefaults()
	cheap := cfg
	cheap.Progress = nil
	st, stats, err := CharacterizeReducedToStoreCtx(ctx, bs, cheap, opt)
	if st != nil {
		defer st.Close()
	}
	if err != nil {
		return storeFailure(stats), err
	}
	results := make([]BenchmarkReduced, len(bs))
	for i := range results {
		results[i].Benchmark = bs[i]
	}
	newProf := func() *micachar.Profiler { return micachar.NewProfiler(rcfg.FullOptions) }
	err = shardPipelineCtx(ctx, st, bs, cfg.Workers, cfg.Progress, "store-backed reduced replay of", newProf,
		func(prof *micachar.Profiler, i int, sd *ivstore.ShardData) error {
			replay, err := bs[i].Source()
			if err != nil {
				return err
			}
			res, err := phases.ReplayReducedShard(replay, prof, sd, rcfg)
			if err != nil {
				return err
			}
			results[i].Result = res
			return nil
		})
	captureCacheStats(st, stats)
	return &Report{Reduced: results, Store: stats}, err
}

// runReducedJointStore is Run's store-backed joint reduced path: the
// cheap pass lands in the store, the shared vocabulary is clustered
// over the normalized matrix read once from the store's shards
// (warm-started from the previous run's state when opt.WarmStart), and
// the joint replay measures only the shared representatives.
func runReducedJointStore(ctx context.Context, bs []Benchmark, cfg ReducedPipelineConfig, opt StoreOptions) (*Report, error) {
	rcfg := cfg.Reduced.WithDefaults()
	st, stats, err := CharacterizeReducedToStoreCtx(ctx, bs, cfg, opt)
	if st != nil {
		defer st.Close()
	}
	if err != nil {
		return storeFailure(stats), err
	}
	j, warmUsed, err := AnalyzePhasesJointOpenStoreCtx(ctx, st, rcfg.CheapConfig(), cfg.Workers, opt.WarmStart)
	stats.WarmStarted = warmUsed
	if err != nil {
		captureCacheStats(st, stats)
		return storeFailure(stats), err
	}
	jr, err := phases.ReplayJointStore(st, j, func(bi int) (trace.Source, error) {
		return bs[bi].Source()
	}, rcfg)
	captureCacheStats(st, stats)
	if err != nil {
		return storeFailure(stats), fmt.Errorf("mica: store-backed joint reduced replay: %w", err)
	}
	return &Report{JointReduced: jr, Store: stats}, nil
}
