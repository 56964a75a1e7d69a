package mica

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
)

// Store-backed reduced profiling: the cheap sampled pass's interval
// vectors go through the interval-vector store (one shard per
// benchmark, same incremental reuse and crash-safety as the plain
// store pipeline), and the expensive replay reads them back with one
// ReadShard per benchmark. The shards are stamped with a
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
	return characterizeToStoreCtx(ctx, bs, reducedCharacterization(cfg), opt)
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
