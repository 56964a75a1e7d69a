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
	"mica/internal/phases"
)

// IVStore is the sharded, columnar, on-disk interval-vector store
// behind registry-scale joint phase analysis: one binary shard per
// benchmark plus a versioned JSON manifest. See internal/ivstore for
// the format.
type IVStore = ivstore.Store

// IVCacheStats counts a store's shard reads (decodes and failed
// reads). See ivstore.CacheStats.
type IVCacheStats = ivstore.CacheStats

// StoreOptions parameterizes the store-backed joint pipelines. The
// zero value (plus a Dir) is the documented default: a full rebuild.
type StoreOptions struct {
	// Dir is the store directory.
	Dir string
	// Incremental reuses shards of an existing store in Dir whose
	// benchmark name and configuration stamp still match, so a rerun
	// re-characterizes only the benchmarks whose configuration hash or
	// membership changed (a missing or dropped shard counts as
	// changed). Without it the whole set is re-characterized. Either
	// way, a shard, manifest or warm-state file whose new bytes equal
	// the file on disk is fsynced in place rather than replaced, so an
	// unchanged rerun writes nothing.
	Incremental bool
	// WarmStart seeds the joint clustering from the warm state a
	// previous store-backed run persisted next to the store (and
	// persists this run's state for the next one). A missing, stale or
	// drifted state silently falls back to fresh seeding;
	// StoreBuildStats.WarmStarted reports what happened.
	WarmStart bool
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
	// Cache counts the store's shard reads at the end of the analysis
	// — populated by the analysis pipelines that close the store
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
// the order the joint analysis concatenates rows in.
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
	return characterizeToStoreCtx(ctx, bs, phaseCharacterization(cfg), opt)
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
// characterization (characterizeShards, writing into the store),
// per-benchmark fault accounting and the partial-work commit. c.hash
// is the configuration stamp shards are keyed on — the plain and
// reduced pipelines stamp differently, so their shards never
// cross-adopt. Repeated benchmark names are rejected before anything
// is created.
func characterizeToStoreCtx(ctx context.Context, bs []Benchmark, c characterization, opt StoreOptions) (*IVStore, *StoreBuildStats, error) {
	if len(bs) == 0 {
		return nil, nil, fmt.Errorf("mica: characterizing zero benchmarks to a store")
	}
	if opt.Dir == "" {
		return nil, nil, fmt.Errorf("mica: store characterization needs a directory")
	}
	if _, err := distinctNames(bs); err != nil {
		return nil, nil, err
	}
	// Inventory the existing store when reuse is requested (the
	// manifest alone — a vanished shard file only invalidates its own
	// benchmark, via the Adopt fallback below). A missing store means a
	// fresh build; a present-but-unusable one is surfaced, never
	// clobbered.
	reusable := make(map[string]ivstore.Shard)
	prevCfg, prevShards, err := ivstore.Inventory(opt.Dir)
	switch {
	case err == nil:
		if opt.Incremental && prevCfg.Dims == NumChars && prevCfg.ConfigHash == c.hash {
			for _, sh := range prevShards {
				if sh.ConfigHash == c.hash {
					reusable[sh.Name] = sh
				}
			}
		}
	case errors.Is(err, fs.ErrNotExist):
		// No store yet; build from scratch.
	default:
		return nil, nil, fmt.Errorf("mica: %s exists but is not a usable interval-vector store (delete it or pass another path): %w", opt.Dir, err)
	}

	st, err := ivstore.Create(opt.Dir, ivstore.Config{Dims: NumChars, ConfigHash: c.hash})
	if err != nil {
		return nil, nil, err
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

	c.what = "store " + c.what
	pipeErr := characterizeShards(ctx, toBuild, c, st)

	// Split the non-built benchmarks into failed (the pool attributed
	// an error to them) and skipped (never dispatched — cancellation),
	// and record what actually got (re)characterized: a benchmark to
	// build is staged exactly when its shard was written.
	failed := failedItems(pipeErr)
	for i, b := range toBuild {
		switch {
		case st.Staged(b.Name()):
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

// AnalyzePhasesJointOpenStoreCtx clusters the joint cross-benchmark
// vocabulary of an ALREADY-OPEN committed store, characterizing
// nothing — the serving-side entry point: mica-serve opens its store
// once at startup and answers phase and similarity queries from it,
// and a store-backed joint Run clusters through it after its build.
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
