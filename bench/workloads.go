package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"mica"
)

// defaultSet is the six-benchmark set cmd/mica-bench measures: it spans
// the kernel families (hash chains, an interpreter, pointer chasing, ALU
// hashing, FFT, 2-D motion search).
var defaultSet = []string{
	"SPEC2000/gzip/program",
	"SPEC2000/crafty/ref",
	"SPEC2000/mcf/ref",
	"MiBench/sha/large",
	"MiBench/FFT/fft-large",
	"MediaBench/mpeg2/encode",
}

// paperSeed seeds the GA and every k-means run, as mica's analysis
// defaults and mica-serve do. The workload seed makes the inputs (the
// order benchmarks are dispatched in, request arrivals and mix); it
// does not reseed the algorithms, because their run time moves with
// their seed (the GA's by about 13%, the joint k-sweep's by about 9%),
// which a comparison across seeds would read as noise.
const paperSeed = 2006

// dispatchOrder is the seeded order a batch workload hands the n
// benchmarks of its set to the pipeline in.
func dispatchOrder(seed int64, n int) []int {
	return rand.New(rand.NewPCG(uint64(seed), 5)).Perm(n)
}

// permute returns xs in order: element i is xs[order[i]].
func permute[T any](xs []T, order []int) []T {
	out := make([]T, len(xs))
	for i, j := range order {
		out[i] = xs[j]
	}
	return out
}

// unpermute undoes permute; a nil order is the identity.
func unpermute[T any](xs []T, order []int) []T {
	if order == nil {
		return xs
	}
	out := make([]T, len(xs))
	for i, j := range order {
		out[j] = xs[i]
	}
	return out
}

func benchmarksByName(names []string) ([]mica.Benchmark, error) {
	out := make([]mica.Benchmark, 0, len(names))
	for _, n := range names {
		b, err := mica.BenchmarkByName(n)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// paperWorkload is the paper's own artifact: profile the registry with
// MICA and the machine models, run the full analysis and render every
// table and figure. wall_s is the whole run; warm_s is its analysis
// and rendering half, what re-analysing saved profiles costs.
type paperWorkload struct {
	// Benchmarks is the set in dispatch order; Order maps it back to
	// the registry order the analysis sees (nil: already in it).
	Benchmarks []mica.Benchmark
	Order      []int
	Profile    mica.Config
	Analysis   mica.AnalysisConfig
	Nominal    float64
	// Key is the digests.json entry the rendering must match.
	Key string
}

func defaultPaper(seed int64) batchWorkload {
	bs := mica.Benchmarks()
	order := dispatchOrder(seed, len(bs))
	prof := mica.DefaultConfig()
	prof.Workers = maxProcs
	return &paperWorkload{Benchmarks: permute(bs, order), Order: order, Profile: prof,
		Analysis: mica.DefaultAnalysisConfig(), Nominal: 3.0, Key: "paper"}
}

func (w *paperWorkload) nominal() float64 { return w.Nominal }

func (w *paperWorkload) digestKey() string { return w.Key }

func (w *paperWorkload) reference(context.Context, *harness, *result) (string, string, error) {
	return "", "", nil
}

func (w *paperWorkload) op(ctx context.Context, h *harness, tr *tracer, trace int64) (opSample, error) {
	var before registry
	if tr != nil {
		before = probeRegistry()
	}
	root := tr.start("paper", 0, trace)
	start := time.Now()
	sp := tr.start("pool.profile", root, trace)
	res, err := mica.ProfileBenchmarksCtx(ctx, w.Benchmarks, w.Profile)
	tr.end(sp)
	if err != nil {
		return opSample{}, err
	}
	profiled := time.Now()
	res = unpermute(res, w.Order)

	var layer map[string]float64
	var a *mica.Analysis
	if tr == nil {
		a = mica.Analyze(res, w.Analysis)
	} else {
		secs := profiled.Sub(start).Seconds()
		var insts uint64
		for _, p := range res {
			insts += p.Insts
		}
		layer = map[string]float64{
			"paper.profile_mips": float64(insts) / secs / 1e6,
			"pool.idle_frac":     idleFrac(before, probeRegistry(), secs),
		}
		a = analyzeTraced(res, w.Analysis, tr, root, trace)
	}
	sp = tr.start("report.render", root, trace)
	text := renderPaper(res, a)
	tr.end(sp)
	end := time.Now()
	tr.end(root)
	return opSample{
		Wall:   end.Sub(start).Seconds(),
		Warm:   end.Sub(profiled).Seconds(),
		Digest: newDigester().str(text).sum(),
		Layer:  layer,
	}, nil
}

// analyzeTraced is mica.Analyze step by step, each step in its own
// span. The output checks compare its rendering with Analyze's, so the
// two cannot drift apart unnoticed.
func analyzeTraced(res []mica.ProfileResult, cfg mica.AnalysisConfig, tr *tracer, parent, trace int64) *mica.Analysis {
	sp := tr.start("stats.space", parent, trace)
	s := mica.NewSpace(res)
	a := &mica.Analysis{Space: s, Config: cfg}
	a.Rho = s.DistanceCorrelation()
	a.Tuples = s.ClassifyTuples(cfg.ThresholdFraction)
	tr.end(sp)

	sp = tr.start("featsel.ga", parent, trace)
	a.GA = s.GASelect(cfg.GASeed)
	tr.end(sp)

	sp = tr.start("featsel.ce", parent, trace)
	a.CE = s.CorrelationElimination()
	a.CECurve = s.CECurve()
	tr.end(sp)

	sp = tr.start("roc.auc", parent, trace)
	a.AUCAll = mica.AUC(s.ROCCurve(nil, cfg.ThresholdFraction))
	a.AUCGA = mica.AUC(s.ROCCurve(a.GA.Selected, cfg.ThresholdFraction))
	a.AUCCE = make(map[int]float64, len(cfg.CESizes))
	for _, k := range cfg.CESizes {
		a.AUCCE[k] = mica.AUC(s.ROCCurve(a.CE.Retained(k), cfg.ThresholdFraction))
	}
	tr.end(sp)

	sp = tr.start("cluster.fig6", parent, trace)
	a.Clusters = s.Cluster(a.GA.Selected, cfg.ClusterMaxK, cfg.ClusterSeed)
	tr.end(sp)
	return a
}

// renderPaper renders every table and figure of the paper.
func renderPaper(res []mica.ProfileResult, a *mica.Analysis) string {
	return strings.Join([]string{
		mica.RenderTableI(res), mica.RenderTableII(res),
		a.RenderFigure1(), a.RenderFigure2(), a.RenderFigure3(), a.RenderTableIII(),
		a.RenderFigure4(), a.RenderFigure5(), a.RenderTableIV(), a.RenderFigure6(true),
		a.SuiteSimilarityReport(),
	}, "\n")
}

// reducedWorkload is the paper's key-characteristic method at work:
// store-backed two-pass reduced profiling of the six-benchmark set on a
// fresh store. wall_s is that analysis; warm_s is the incremental rerun
// on the same store, which adopts every shard and pays only clustering
// and replay.
type reducedWorkload struct {
	// Benchmarks is the set in dispatch order; Order maps it back to
	// defaultSet order (nil: already in it).
	Benchmarks []mica.Benchmark
	Order      []int
	Config     mica.ReducedPipelineConfig
	Nominal    float64
	// Key is the digests.json entry the vectors and error must match.
	Key string
}

func defaultReduced(seed int64) (batchWorkload, error) {
	bs, err := benchmarksByName(defaultSet)
	if err != nil {
		return nil, err
	}
	order := dispatchOrder(seed, len(bs))
	return &reducedWorkload{
		Benchmarks: permute(bs, order),
		Order:      order,
		Config: mica.ReducedPipelineConfig{Workers: maxProcs, Reduced: mica.ReducedConfig{
			Phase: mica.PhaseConfig{IntervalLen: 5000, MaxIntervals: 400, MaxK: 10, Seed: paperSeed},
		}},
		Nominal: 0.45,
		Key:     "reduced",
	}, nil
}

func (w *reducedWorkload) nominal() float64 { return w.Nominal }

func (w *reducedWorkload) digestKey() string { return w.Key }

// maxErrPct bounds the reduced vectors' worst per-metric error against
// the exact profile. The workload's 2.70% is also pinned exactly by its
// digest; this bound names the failure when the digest moves.
const maxErrPct = 5.0

// reference runs one untimed reduced analysis and scores it against
// ProfileExact, the matched-grid full profile.
func (w *reducedWorkload) reference(ctx context.Context, h *harness, r *result) (string, string, error) {
	dir, err := h.tempDir("reduced-ref")
	if err != nil {
		return "", "", err
	}
	defer os.RemoveAll(dir)
	rs, _, err := mica.AnalyzeReducedStoreCtx(ctx, w.Benchmarks, w.Config, mica.StoreOptions{Dir: dir})
	if err != nil {
		return "", "", err
	}
	worst := 0.0
	for i, b := range w.Benchmarks {
		ex, err := mica.ProfileExact(b, w.Config.Reduced)
		if err != nil {
			return "", "", err
		}
		worst = max(worst, rs[i].Result.MaxRelativeError(ex))
	}
	pct := worst * 100
	r.addDetail("reduced.max_err_pct", "%", pct)
	var errCheck error
	if pct > maxErrPct {
		errCheck = fmt.Errorf("worst per-metric error %.3f%% exceeds %.1f%%", pct, maxErrPct)
	}
	r.addCheck("max_err_pct", errCheck)
	return w.digest(rs), strconv.FormatFloat(pct, 'g', -1, 64), nil
}

// digest hashes the reduced vectors in defaultSet order.
func (w *reducedWorkload) digest(rs []mica.BenchmarkReduced) string {
	d := newDigester()
	for _, br := range unpermute(rs, w.Order) {
		d.str(br.Benchmark.Name()).floats(br.Result.Chars[:]...).floats(br.Result.HPC[:]...)
	}
	return d.sum()
}

func (w *reducedWorkload) op(ctx context.Context, h *harness, tr *tracer, trace int64) (opSample, error) {
	dir, err := h.tempDir("reduced")
	if err != nil {
		return opSample{}, err
	}
	defer os.RemoveAll(dir)
	fresh := mica.StoreOptions{Dir: dir}
	incremental := mica.StoreOptions{Dir: dir, Incremental: true}

	var before registry
	var layer map[string]float64
	if tr != nil {
		before = probeRegistry()
		layer = map[string]float64{}
	}
	root := tr.start("reduced", 0, trace)
	start := time.Now()
	var rs []mica.BenchmarkReduced
	if !h.traced {
		rs, _, err = mica.AnalyzeReducedStoreCtx(ctx, w.Benchmarks, w.Config, fresh)
	} else {
		// The same analysis in its two halves: the cheap pass into the
		// fresh store, then an incremental analysis that adopts every
		// shard and pays only clustering and replay. A traced run splits
		// its untraced operations too, so trace_overhead_pct compares the
		// same calls with and without spans.
		var caches []mica.IVCacheStats
		sp := tr.start("reduced.cheap", root, trace)
		var st *mica.IVStore
		st, _, err = mica.CharacterizeReducedToStoreCtx(ctx, w.Benchmarks, w.Config, fresh)
		if st != nil {
			caches = append(caches, st.CacheStats())
			st.Close()
		}
		tr.end(sp)
		if err == nil {
			sp = tr.start("reduced.replay", root, trace)
			var stats *mica.StoreBuildStats
			rs, stats, err = mica.AnalyzeReducedStoreCtx(ctx, w.Benchmarks, w.Config, incremental)
			tr.end(sp)
			if err == nil {
				caches = append(caches, stats.Cache)
			}
		}
		if tr != nil {
			storeLayers(layer, dir, caches...)
		}
	}
	wall := time.Since(start).Seconds()
	tr.end(root)
	if err != nil {
		return opSample{}, err
	}
	if tr != nil {
		after := probeRegistry()
		layer["phases.characterize_cpu_s"] = before.delta(after, seriesCharacter)
		layer["phases.replay_cpu_s"] = before.delta(after, seriesReplay)
		layer["cluster.sweep_cpu_s"] = before.delta(after, seriesSweep)
	}
	digest := w.digest(rs)

	start = time.Now()
	again, stats, err := mica.AnalyzeReducedStoreCtx(ctx, w.Benchmarks, w.Config, incremental)
	warm := time.Since(start).Seconds()
	switch {
	case err != nil:
		return opSample{}, fmt.Errorf("incremental rerun: %w", err)
	case len(stats.Reused) != len(w.Benchmarks):
		return opSample{}, fmt.Errorf("incremental rerun adopted %d of %d shards", len(stats.Reused), len(w.Benchmarks))
	case w.digest(again) != digest:
		return opSample{}, fmt.Errorf("incremental rerun changed the reduced vectors")
	}
	return opSample{Wall: wall, Warm: warm, Digest: digest, Layer: layer}, nil
}

// storeLayers fills the ivstore per-layer values from the caches of
// every store an operation opened and the size of the store in dir.
func storeLayers(layer map[string]float64, dir string, caches ...mica.IVCacheStats) {
	var hits, misses, decodes, evictions uint64
	var peak int64
	for _, c := range caches {
		hits, misses, decodes, evictions = hits+c.Hits, misses+c.Misses, decodes+c.Decodes, evictions+c.Evictions
		peak = max(peak, c.PeakBytes)
	}
	layer["ivstore.decodes"] = float64(decodes)
	layer["ivstore.hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	layer["ivstore.evictions"] = float64(evictions)
	layer["ivstore.peak_cache_mb"] = float64(peak) / 1e6
	layer["ivstore.store_mb"] = float64(dirBytes(dir)) / 1e6
}

// ratio is num/den, or 0 when there was nothing to count.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// jointWorkload is registry-scale joint phase analysis through the
// interval-vector store: wall_s is a cold build (characterize every
// benchmark into a fresh store, cluster the shared vocabulary), warm_s
// the incremental warm-started rerun on that store, which only reads.
// The order benchmarks are passed in is also the store's row order,
// which the clustering's result and work depend on, so joint keeps the
// registry order and does the same work at every seed.
type jointWorkload struct {
	Benchmarks []mica.Benchmark
	Config     mica.PhasePipelineConfig
	Nominal    float64
	// Key is the digests.json entry the clustering must match.
	Key string
}

// defaultJoint clusters 600-instruction intervals x 250 per benchmark
// (30.5k rows). 400 x 1000 (122k rows) keeps the same shape, clustering
// about half the cold build and nearly all the rerun. But its runs
// repeated worse under host load and took 2.5 times as long; README.md
// records the measurement.
func defaultJoint() batchWorkload {
	return &jointWorkload{
		Benchmarks: mica.Benchmarks(),
		Config: mica.PhasePipelineConfig{Workers: maxProcs,
			Phase: mica.PhaseConfig{IntervalLen: 600, MaxIntervals: 250, MaxK: 10, Seed: paperSeed}},
		Nominal: 2.4,
		Key:     "joint",
	}
}

func (w *jointWorkload) nominal() float64 { return w.Nominal }

func (w *jointWorkload) digestKey() string { return w.Key }

func (w *jointWorkload) reference(context.Context, *harness, *result) (string, string, error) {
	return "", "", nil
}

func (w *jointWorkload) op(ctx context.Context, h *harness, tr *tracer, trace int64) (opSample, error) {
	dir, err := h.tempDir("joint")
	if err != nil {
		return opSample{}, err
	}
	defer os.RemoveAll(dir)

	var before registry
	if tr != nil {
		before = probeRegistry()
	}
	root := tr.start("joint", 0, trace)
	start := time.Now()
	cold, err := w.build(ctx, tr, root, trace, mica.StoreOptions{Dir: dir, WarmStart: true}, "joint.characterize", "joint.cluster")
	wall := time.Since(start).Seconds()
	tr.end(root)
	if err != nil {
		return opSample{}, err
	}
	var coldProbe registry
	if tr != nil {
		coldProbe = probeRegistry()
	}
	rep, err := mica.VerifyIVStore(dir)
	if err != nil {
		return opSample{}, err
	}
	if !rep.Clean() {
		return opSample{}, fmt.Errorf("store fails verification after a cold build: %+v", rep)
	}

	root = tr.start("joint.rerun", 0, trace)
	start = time.Now()
	rerun, err := w.build(ctx, tr, root, trace, mica.StoreOptions{Dir: dir, Incremental: true, WarmStart: true},
		"joint.rerun_adopt", "joint.rerun_cluster")
	warm := time.Since(start).Seconds()
	tr.end(root)
	if err != nil {
		return opSample{}, fmt.Errorf("warm rerun: %w", err)
	}
	if rerun.reused != len(w.Benchmarks) {
		return opSample{}, fmt.Errorf("warm rerun adopted %d of %d shards", rerun.reused, len(w.Benchmarks))
	}
	var layer map[string]float64
	if tr != nil {
		after := probeRegistry()
		layer = map[string]float64{
			"pool.idle_frac":            idleFrac(before, coldProbe, wall),
			"phases.characterize_cpu_s": before.delta(after, seriesCharacter),
			"cluster.sweep_cpu_s":       before.delta(after, seriesSweep),
			"joint.warm_used":           b2f(rerun.warmUsed),
		}
		storeLayers(layer, dir, cold.cache, rerun.cache)
	}
	digest := newDigester().ints(cold.j.K).ints(cold.j.Assign...).ints(rerun.j.K).sum()
	return opSample{Wall: wall, Warm: warm, Digest: digest, Layer: layer}, nil
}

type jointBuild struct {
	j        *mica.PhaseJointResult
	reused   int
	warmUsed bool
	cache    mica.IVCacheStats
}

// build characterizes into (or adopts from) the store in opt.Dir and
// clusters its joint vocabulary, the two halves in spans named
// charName and clusterName.
func (w *jointWorkload) build(ctx context.Context, tr *tracer, root, trace int64, opt mica.StoreOptions,
	charName, clusterName string) (jointBuild, error) {
	sp := tr.start(charName, root, trace)
	st, stats, err := mica.CharacterizeToStoreCtx(ctx, w.Benchmarks, w.Config, opt)
	tr.end(sp)
	if err != nil {
		if st != nil {
			st.Close()
		}
		return jointBuild{}, err
	}
	sp = tr.start(clusterName, root, trace)
	j, warmUsed, err := mica.AnalyzePhasesJointOpenStoreCtx(ctx, st, w.Config.Phase, w.Config.Workers, opt.WarmStart)
	tr.end(sp)
	b := jointBuild{j: j, reused: len(stats.Reused), warmUsed: warmUsed, cache: st.CacheStats()}
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	return b, err
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// dirBytes sums the sizes of the regular files directly in dir.
func dirBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range entries {
		if fi, err := os.Stat(filepath.Join(dir, e.Name())); err == nil && fi.Mode().IsRegular() {
			total += fi.Size()
		}
	}
	return total
}
