package mica

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"

	"mica/internal/ivstore"
	micachar "mica/internal/mica"
	"mica/internal/phases"
	"mica/internal/trace"
)

// IVStore is the sharded, columnar, on-disk interval-vector store
// behind registry-scale joint phase analysis: one binary shard per
// benchmark plus a versioned JSON manifest. See internal/ivstore for
// the format.
type IVStore = ivstore.Store

// IVCacheStats is the store's decoded-shard cache accounting (budget,
// resident and peak bytes, hits, decodes, evictions). See
// ivstore.CacheStats.
type IVCacheStats = ivstore.CacheStats

// StoreOptions parameterizes the store-backed joint pipelines. The
// zero value (plus a Dir) is the documented default: float32 shards,
// full rebuild.
type StoreOptions struct {
	// Dir is the store directory.
	Dir string
	// Quantize selects the 8-bit quantized shard encoding instead of
	// float32 — 4x smaller shards for a reconstruction error bounded by
	// half a per-column quantization step (ivstore.Quant8MaxError).
	Quantize bool
	// Incremental reuses shards of an existing store in Dir whose
	// benchmark name and configuration stamp still match, so a rerun
	// re-characterizes only the benchmarks whose configuration hash or
	// membership changed (a missing or dropped shard counts as
	// changed). Without it the whole set is re-characterized. Either
	// way, a shard, manifest or warm-state file whose new bytes equal
	// the file on disk is fsynced in place rather than replaced, so an
	// unchanged rerun writes nothing.
	Incremental bool
	// CacheBytes bounds the store's decoded-shard cache (bytes of
	// decoded rows held in memory across the analysis passes). Zero
	// keeps the store's default budget: all shards decoded, clamped to
	// 1 GiB and floored at one shard. See ivstore.SetCacheBytes.
	CacheBytes int64
	// WarmStart seeds the joint clustering from the warm state a
	// previous store-backed run persisted next to the store (and
	// persists this run's state for the next one). A missing, stale or
	// drifted state silently falls back to fresh seeding;
	// StoreBuildStats.WarmStarted reports what happened.
	WarmStart bool
}

// encoding maps the option to the store encoding.
func (o StoreOptions) encoding() ivstore.Encoding {
	if o.Quantize {
		return ivstore.Quant8
	}
	return ivstore.Float32
}

// StoreBuildStats reports what a CharacterizeToStoreCtx run did per
// benchmark — the incremental contract made observable (and
// regression-tested: an incremental rerun that changes one benchmark
// re-characterizes exactly that one).
type StoreBuildStats struct {
	// Characterized lists the benchmarks whose shards were (re)built
	// this run, in pipeline order. A benchmark appears here only if its
	// shard was actually written — failed and never-dispatched
	// benchmarks land in Failed/Skipped.
	Characterized []string
	// Reused lists the benchmarks whose existing shards were adopted
	// unchanged.
	Reused []string
	// Failed lists the benchmarks whose characterization or shard
	// write failed this run (bs order). They are absent from the
	// committed manifest; an incremental rerun re-characterizes
	// exactly them.
	Failed []string
	// Skipped lists the benchmarks never dispatched because the
	// context was cancelled first (bs order). Like Failed they are
	// absent from the committed manifest and picked up by a rerun.
	Skipped []string
	// CommitWarnings carries the non-fatal problems Commit reported
	// (stray files it could not prune, a failed lock downgrade).
	CommitWarnings []string
	// Cache is the store's decoded-shard cache accounting at the end of
	// the analysis (peak resident bytes, hits, decodes, evictions) —
	// populated by the analysis pipelines that close the store
	// internally, zero for a bare CharacterizeToStoreCtx.
	Cache IVCacheStats
	// WarmStarted reports whether the joint clustering was actually
	// seeded from a persisted warm state (StoreOptions.WarmStart
	// requested AND the state matched the store).
	WarmStarted bool
}

// CharacterizeToStoreCtx characterizes every benchmark's intervals
// into an on-disk interval-vector store: the sharded pooled pipeline
// (one profiler per worker, Reset between intervals and benchmarks)
// feeds one shard per benchmark, written as each worker finishes, so
// peak memory is bounded by the in-flight benchmarks — never the
// registry-wide matrix. The committed store's row order is bs order,
// exactly the concatenation order of the in-memory joint path.
//
// With opt.Incremental, shards of an existing store in opt.Dir are
// reused in place when their benchmark name and configuration stamp
// (PhaseConfigKey) still match and their file is still present; only
// changed benchmarks pay re-characterization, and benchmarks dropped
// from bs are pruned on commit. A directory that holds an unreadable
// store is an error, never silently overwritten. cfg.Progress is
// invoked once per benchmark actually characterized (not for reused
// shards).
//
// The build is resumable: a failing or panicking benchmark is skipped
// (named in the joined error and in stats.Failed) while the others
// complete; cancelling ctx stops dispatching new benchmarks and drains
// in-flight ones (never dispatched ones land in stats.Skipped). In
// both cases every shard that WAS successfully staged — reused or just
// characterized — is still committed, so the partial store is durable
// and a subsequent Incremental rerun adopts those shards and
// re-characterizes exactly the failed/skipped benchmarks. If nothing
// was staged, nothing is committed and a previously committed store in
// opt.Dir is left untouched.
//
// On success the returned store is committed and open (holding a
// shared lock); the caller owns it and should Close it. When err is
// non-nil the store is returned too whenever it exists — possibly
// committed with partial contents, possibly uncommitted if the commit
// itself failed — so the caller can inspect it; Close it either way.
func CharacterizeToStoreCtx(ctx context.Context, bs []Benchmark, cfg PhasePipelineConfig, opt StoreOptions) (*IVStore, *StoreBuildStats, error) {
	if err := cfg.Phase.Options.Validate(); err != nil {
		return nil, nil, err
	}
	cfg.Phase = cfg.Phase.WithDefaults()
	return characterizeToStoreCtx(ctx, bs, cfg, opt, phaseConfigHash(cfg.Phase), "store characterization of",
		func(m trace.Source, prof *micachar.Profiler) (*phases.Result, error) {
			return phases.CharacterizeWith(m, prof, cfg.Phase)
		})
}

// phaseConfigJSON is the normalized phase configuration a store shard
// is stamped with. Its serialized bytes are the stamp's input, so
// fields may only be added as omitempty with a zero default.
type phaseConfigJSON struct {
	IntervalLen  uint64 `json:"interval_len"`
	MaxIntervals int    `json:"max_intervals"`
	MaxK         int    `json:"max_k"`
	Seed         int64  `json:"seed"`
	PPMOrder     int    `json:"ppm_order,omitempty"`
	NoMemDeps    bool   `json:"no_mem_deps,omitempty"`
	Subset       []bool `json:"subset,omitempty"`
}

// phaseConfigToJSON normalizes cfg. A non-nil empty subset means "all
// characteristics" like nil, and omitempty drops both, so the two
// stamp identically.
func phaseConfigToJSON(cfg PhaseConfig) phaseConfigJSON {
	cfg = cfg.WithDefaults()
	return phaseConfigJSON{
		IntervalLen:  cfg.IntervalLen,
		MaxIntervals: cfg.MaxIntervals,
		MaxK:         cfg.MaxK,
		Seed:         cfg.Seed,
		PPMOrder:     cfg.Options.PPMOrder,
		NoMemDeps:    cfg.Options.NoMemDeps,
		Subset:       cfg.Options.Subset,
	}
}

// phaseConfigHash returns the sha256 hex stamp of the normalized phase
// configuration — the provenance key interval-vector stores record per
// shard, so "can this shard be reused" is decided by one serialization.
func phaseConfigHash(cfg PhaseConfig) string {
	data, err := json.Marshal(phaseConfigToJSON(cfg))
	if err != nil {
		// phaseConfigJSON is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("mica: hashing phase config: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// PhaseConfigKey is the public form of the phase-configuration stamp:
// the sha256 hex of the normalized configuration, the stamp
// interval-vector store shards carry. Two requests with equal keys and
// equal benchmark names ask for the same characterization, which is
// what lets a serving layer (mica-serve) collapse identical in-flight
// and completed submissions onto one run.
func PhaseConfigKey(cfg PhaseConfig) string {
	return phaseConfigHash(cfg.WithDefaults())
}

// ReducedConfigKey is PhaseConfigKey's reduced-pipeline counterpart:
// the stamp reduced cheap-pass shards are matched on, disjoint from
// plain phase stamps even at SampleFrac == 1.
func ReducedConfigKey(cfg ReducedConfig) string {
	return reducedStoreHash(cfg.WithDefaults())
}

// characterizeToStoreCtx is the shared store-build engine behind the
// plain and reduced store pipelines: shard reuse inventory, the pooled
// characterization (characterize produces each benchmark's interval
// grid; the profiler it receives was built from cfg.Phase.Options),
// per-benchmark fault accounting and the partial-work commit. hash is
// the configuration stamp shards are keyed on — the plain and reduced
// pipelines stamp differently, so their shards never cross-adopt.
func characterizeToStoreCtx(ctx context.Context, bs []Benchmark, cfg PhasePipelineConfig, opt StoreOptions,
	hash, what string, characterize func(m trace.Source, prof *micachar.Profiler) (*phases.Result, error)) (*IVStore, *StoreBuildStats, error) {
	if len(bs) == 0 {
		return nil, nil, fmt.Errorf("mica: characterizing zero benchmarks to a store")
	}
	if opt.Dir == "" {
		return nil, nil, fmt.Errorf("mica: store characterization needs a directory")
	}
	enc := opt.encoding()

	// Inventory the existing store when reuse is requested (the
	// manifest alone — a vanished shard file only invalidates its own
	// benchmark, via the Adopt fallback below). A missing store means a
	// fresh build; a present-but-unusable one is surfaced, never
	// clobbered.
	reusable := make(map[string]ivstore.Shard)
	prevCfg, prevShards, err := ivstore.Inventory(opt.Dir)
	switch {
	case err == nil:
		if opt.Incremental && prevCfg.Dims == NumChars && prevCfg.Encoding == enc && prevCfg.ConfigHash == hash {
			for _, sh := range prevShards {
				if sh.ConfigHash == hash {
					reusable[sh.Name] = sh
				}
			}
		}
	case errors.Is(err, fs.ErrNotExist):
		// No store yet; build from scratch.
	default:
		return nil, nil, fmt.Errorf("mica: %s exists but is not a usable interval-vector store (delete it or pass another path): %w", opt.Dir, err)
	}

	st, err := ivstore.Create(opt.Dir, ivstore.Config{Dims: NumChars, Encoding: enc, ConfigHash: hash})
	if err != nil {
		return nil, nil, err
	}
	if opt.CacheBytes > 0 {
		st.SetCacheBytes(opt.CacheBytes)
	}

	stats := &StoreBuildStats{}
	var toBuild []Benchmark
	for _, b := range bs {
		if sh, ok := reusable[b.Name()]; ok {
			if err := st.Adopt(sh); err == nil {
				stats.Reused = append(stats.Reused, b.Name())
				continue
			}
			// A vanished or renamed shard file counts as a changed
			// benchmark: fall through to re-characterization.
		}
		toBuild = append(toBuild, b)
	}

	built := make([]bool, len(toBuild))
	pipeErr := phasePipelineCtx(ctx, toBuild, cfg, what, func(m trace.Source, prof *micachar.Profiler, i int) error {
		res, err := characterize(m, prof)
		if err != nil {
			return err
		}
		insts := make([]uint64, len(res.Intervals))
		for ii, iv := range res.Intervals {
			insts[ii] = iv.Insts
		}
		if err := st.WriteShard(toBuild[i].Name(), insts, res.Vectors); err != nil {
			return err
		}
		built[i] = true
		return nil
	})

	// Split the non-built benchmarks into failed (the pool attributed
	// an error to them) and skipped (never dispatched — cancellation),
	// and record what actually got (re)characterized.
	failed := failedItems(pipeErr)
	for i, b := range toBuild {
		switch {
		case built[i]:
			stats.Characterized = append(stats.Characterized, b.Name())
		case failed[i]:
			stats.Failed = append(stats.Failed, b.Name())
		default:
			stats.Skipped = append(stats.Skipped, b.Name())
		}
	}

	// Commit every staged shard — reused or built — in bs order, so
	// partial work survives a failure or cancellation and an
	// incremental rerun re-characterizes exactly the rest. With nothing
	// staged there is nothing worth committing, and skipping the commit
	// keeps the invariant that a (wholly) failed build never destroys a
	// previously committed store.
	var order []string
	for _, b := range bs {
		if st.Staged(b.Name()) {
			order = append(order, b.Name())
		}
	}
	if len(order) == 0 {
		return st, stats, pipeErr
	}
	warnings, commitErr := st.Commit(order)
	stats.CommitWarnings = warnings
	if commitErr != nil {
		return st, stats, errors.Join(pipeErr, commitErr)
	}
	return st, stats, pipeErr
}

// runPhasesStore is Run's store-backed per-benchmark phase path: every
// benchmark is characterized into (or, with opt.Incremental, reused
// from) the store in opt.Dir, then each benchmark's phases are
// clustered from its stored shard. The result differs from the
// in-memory path only by the shard encoding's rounding of the interval
// vectors (float32 by default). A characterization failure returns no
// results. The internally opened store is always closed before
// returning.
func runPhasesStore(ctx context.Context, bs []Benchmark, cfg PhasePipelineConfig, opt StoreOptions) (*Report, error) {
	st, stats, err := CharacterizeToStoreCtx(ctx, bs, cfg, opt)
	if st != nil {
		defer st.Close()
	}
	if err != nil {
		return storeFailure(stats), err
	}
	results := make([]BenchmarkPhases, len(bs))
	for i := range results {
		results[i].Benchmark = bs[i]
	}
	err = shardPipelineCtx(ctx, st, bs, cfg.Workers, nil, "store-backed phase analysis of", nil,
		func(_ struct{}, i int, sd *ivstore.ShardData) error {
			results[i].Result = phases.ResultFromShard(sd, cfg.Phase)
			return nil
		})
	captureCacheStats(st, stats)
	return &Report{Phases: results, Store: stats}, err
}

// shardPipelineCtx is the per-benchmark back half of the store-backed
// pipelines: through fanOut, it hands analyze each bs[i]'s committed
// shard, read through the store's decoded-shard cache, together with
// the calling worker's state (built by newState, see fanOut). A
// benchmark the store holds no shard for is a failure named like any
// other.
func shardPipelineCtx[S any](ctx context.Context, st *IVStore, bs []Benchmark, workers int,
	progress func(done, total int, name string), what string, newState func() S,
	analyze func(state S, i int, sd *ivstore.ShardData) error) error {
	shardIdx := make(map[string]int)
	for i, sh := range st.Shards() {
		shardIdx[sh.Name] = i
	}
	return fanOut(ctx, bs, workers, progress, what, newState, func(state S, i int) error {
		si, ok := shardIdx[bs[i].Name()]
		if !ok {
			return fmt.Errorf("no committed shard (characterization did not complete)")
		}
		sd, err := st.CachedShard(si)
		if err != nil {
			return err
		}
		return analyze(state, i, sd)
	})
}

// runPhasesJointStore is Run's store-backed joint phase path: every
// benchmark is characterized into (or reused from) the store in
// opt.Dir, then the registry-wide joint vocabulary is clustered over
// one normalized matrix read from the shards — bit-identical to the
// in-memory path on data that round-trips the shard encoding. The
// characterizations never coexist in memory; the clustering holds the
// n x 47 x 8-byte normalized matrix beside the decoded-shard cache.
// The joint result's Vectors matrix is nil by design; everything else
// (assignment, K, representatives, occupancy, provenance) is fully
// populated. The internally opened store is always closed before
// returning.
func runPhasesJointStore(ctx context.Context, bs []Benchmark, cfg PhasePipelineConfig, opt StoreOptions) (*Report, error) {
	st, stats, err := CharacterizeToStoreCtx(ctx, bs, cfg, opt)
	if st != nil {
		defer st.Close()
	}
	if err != nil {
		return storeFailure(stats), err
	}
	j, warmUsed, err := AnalyzePhasesJointOpenStoreCtx(ctx, st, cfg.Phase, cfg.Workers, opt.WarmStart)
	stats.WarmStarted = warmUsed
	captureCacheStats(st, stats)
	if err != nil {
		return storeFailure(stats), err
	}
	return &Report{Joint: j, Store: stats}, nil
}

// AnalyzePhasesJointOpenStoreCtx clusters the joint cross-benchmark
// vocabulary of an ALREADY-OPEN committed store, characterizing
// nothing — the serving-side entry point: mica-serve opens its store
// once at startup and answers phase and similarity queries from it,
// and Run's joint store paths cluster through it after their build.
// Warm-start state is read from and saved back to the store's aux
// files exactly as the build pipelines do (best-effort both ways).
// The caller keeps ownership of st; warmUsed reports whether a prior
// run's state actually seeded the clustering.
func AnalyzePhasesJointOpenStoreCtx(ctx context.Context, st *IVStore, cfg PhaseConfig, workers int, warmStart bool) (j *PhaseJointResult, warmUsed bool, err error) {
	cfg = cfg.WithDefaults()
	var warm *phases.JointWarmState
	if warmStart {
		warm = loadWarmState(st)
	}
	j, warmUsed, err = phases.AnalyzeJointStore(ctx, st, cfg, workers, warm)
	if err != nil {
		return nil, warmUsed, err
	}
	saveWarmState(st, j)
	return j, warmUsed, nil
}

// warmAuxName is the auxiliary file the joint store pipelines persist
// their warm-start state under, next to the store's shards.
const warmAuxName = "warm.aux.json"

// loadWarmState reads the persisted warm-start state next to a store.
// Absence or an unreadable file is a silent fresh start — warm seeding
// is an optimization, never a correctness dependency.
func loadWarmState(st *IVStore) *phases.JointWarmState {
	data, err := st.ReadAux(warmAuxName)
	if err != nil {
		return nil
	}
	var ws phases.JointWarmState
	if json.Unmarshal(data, &ws) != nil {
		return nil
	}
	return &ws
}

// saveWarmState persists a joint result's warm state next to the
// store, best-effort: a failed write costs the next run its warm
// start, nothing else.
func saveWarmState(st *IVStore, j *PhaseJointResult) {
	ws := j.WarmState(st.ConfigHash())
	if ws == nil {
		return
	}
	if data, err := json.Marshal(ws); err == nil {
		_ = st.WriteAux(warmAuxName, data)
	}
}

// captureCacheStats snapshots the store's decoded-shard cache
// accounting into the build stats; the store pipelines call it just
// before closing the store they opened internally.
func captureCacheStats(st *IVStore, stats *StoreBuildStats) {
	if st != nil && stats != nil {
		stats.Cache = st.CacheStats()
	}
}

// OpenIVStore opens an existing committed interval-vector store —
// the read-only entry point for tools that analyze a store built by
// an earlier run (mica-phases -store without re-characterizing, or a
// direct phases.AnalyzeJointStore call).
func OpenIVStore(dir string) (*IVStore, error) { return ivstore.Open(dir) }

// IVStoreFsckReport is the result of an interval-vector store
// integrity check or repair. See ivstore.FsckReport.
type IVStoreFsckReport = ivstore.FsckReport

// VerifyIVStore checks the integrity of the store at dir without
// modifying it: the manifest parses, every manifest shard is present
// with an intact CRC, and no crash artifacts (orphaned tmp files,
// shards absent from the manifest) remain. The report's Clean method
// says whether the store needs Repair.
func VerifyIVStore(dir string) (*IVStoreFsckReport, error) { return ivstore.Verify(dir) }

// RepairIVStore restores the store at dir to a consistent state:
// corrupt or truncated shards are quarantined (renamed aside and
// dropped from the manifest) and crash artifacts are removed. The
// store stays usable; an incremental rerun re-characterizes exactly
// the quarantined benchmarks.
func RepairIVStore(dir string) (*IVStoreFsckReport, error) { return ivstore.Repair(dir) }
