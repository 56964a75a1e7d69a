package mica

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// reducedStoreBenchSet is a 3-benchmark slice of the tracked reduced
// set — enough suites (branchy SPEC, hashing, FP) to make the
// clustering non-trivial while keeping the exact-profile oracle runs
// affordable in tier-1.
var reducedStoreBenchSet = []string{
	"SPEC2000/gzip/program",
	"MiBench/sha/large",
	"MiBench/FFT/fft-large",
}

// TestReducedStoreHashDisjoint: reduced shards must never be adopted
// by the plain store pipeline or vice versa, and the sampling fraction
// is part of the reduced stamp.
func TestReducedStoreHashDisjoint(t *testing.T) {
	cfg := reducedAcceptanceConfig().WithDefaults()
	if reducedStoreHash(cfg) == phaseConfigHash(cfg.CheapConfig()) {
		t.Error("reduced store stamp collides with the plain phase stamp")
	}
	sampled := cfg
	sampled.SampleFrac = 0.5
	if reducedStoreHash(cfg) == reducedStoreHash(sampled) {
		t.Error("changing SampleFrac does not change the reduced store stamp")
	}
	if reducedStoreHash(cfg) != reducedStoreHash(cfg) {
		t.Error("reduced store stamp is not deterministic")
	}
}

// TestAnalyzeReducedStoreMatchesInMemory is the store-backed reduced
// acceptance differential: on real registry benchmarks at the tracked
// configuration, the store-backed per-benchmark reduction must agree
// with the in-memory pipeline (same K, extrapolations within the
// pipeline's own 5% bound) and stay within the 5% per-metric bound of
// the exact matched-grid oracle — the same bound the in-memory path
// is held to.
func TestAnalyzeReducedStoreMatchesInMemory(t *testing.T) {
	bs := storeBenchmarks(t, reducedStoreBenchSet...)
	cfg := ReducedPipelineConfig{Reduced: reducedAcceptanceConfig(), Workers: 2}

	mem, err := Run(context.Background(), Request{Benchmarks: bs, Reduced: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	want := mem.Reduced
	got, stats, err := AnalyzeReducedStoreCtx(context.Background(), bs, cfg, StoreOptions{Dir: filepath.Join(t.TempDir(), "store")})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Characterized) != len(bs) {
		t.Fatalf("fresh reduced store build characterized %v, want all %d", stats.Characterized, len(bs))
	}
	if stats.Cache.Decodes == 0 || stats.Cache.PeakBytes == 0 {
		t.Errorf("cache accounting empty after store-backed replay: %+v", stats.Cache)
	}

	for i, b := range bs {
		g, w := got[i].Result, want[i].Result
		if g == nil {
			t.Fatalf("%s: no store-backed result", b.Name())
		}
		if g.Phases.K != w.Phases.K {
			t.Errorf("%s: store-backed K=%d, in-memory K=%d", b.Name(), g.Phases.K, w.Phases.K)
		}
		if d := maxRelDiff(g.Chars[:], w.Chars[:]); d > 0.05 {
			t.Errorf("%s: store-backed characteristics deviate %.4f from in-memory (>5%%)", b.Name(), d)
		}
		if d := maxRelDiff(g.HPC[:], w.HPC[:]); d > 0.05 {
			t.Errorf("%s: store-backed HPC deviates %.4f from in-memory (>5%%)", b.Name(), d)
		}

		// Against the exact oracle: the acceptance bound the in-memory
		// pipeline is held to applies unchanged.
		ex, err := ProfileExact(b, cfg.Reduced)
		if err != nil {
			t.Fatal(err)
		}
		for c, e := range g.CharErrors(ex) {
			if e > 0.05 {
				t.Errorf("%s: characteristic %s extrapolates with %.2f%% relative error (>5%%)",
					b.Name(), CharName(c), e*100)
			}
		}
		for c, e := range g.HPCErrors(ex) {
			if e > 0.05 {
				t.Errorf("%s: HPC metric %s extrapolates with %.2f%% relative error (>5%%)",
					b.Name(), HPCMetricName(c), e*100)
			}
		}
	}
}

// TestUnchangedReducedRerunKeepsManifest: an Incremental rerun of an
// unchanged store-backed reduced analysis adopts every shard, keeps
// manifest.json in place (same inode: the identical manifest is
// fsynced, not replaced) and returns the same results.
func TestUnchangedReducedRerunKeepsManifest(t *testing.T) {
	bs := storeBenchmarks(t, "MiBench/sha/large", "CommBench/drr/drr")
	cfg := ReducedPipelineConfig{Reduced: ReducedConfig{Phase: storeTestConfig}, Workers: 1}
	opt := StoreOptions{Dir: filepath.Join(t.TempDir(), "store"), Incremental: true}
	first, _, err := AnalyzeReducedStoreCtx(context.Background(), bs, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	manPath := filepath.Join(opt.Dir, "manifest.json")
	before, err := os.Stat(manPath)
	if err != nil {
		t.Fatal(err)
	}

	again, stats, err := AnalyzeReducedStoreCtx(context.Background(), bs, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Reused) != len(bs) {
		t.Fatalf("unchanged rerun reused %v, want all %d", stats.Reused, len(bs))
	}
	after, err := os.Stat(manPath)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) {
		t.Error("unchanged reduced rerun replaced manifest.json")
	}
	for i, b := range bs {
		g, w := again[i].Result, first[i].Result
		if g.Phases.K != w.Phases.K || g.Chars != w.Chars || g.HPC != w.HPC {
			t.Errorf("%s: unchanged rerun changed the reduced result", b.Name())
		}
	}
}

// TestAnalyzeReducedJointStoreMatchesInMemory: the store-backed joint
// reduction agrees with the in-memory joint reduction on a real set —
// same benchmark coverage, extrapolations within the shared 5% bound.
func TestAnalyzeReducedJointStoreMatchesInMemory(t *testing.T) {
	bs := storeBenchmarks(t, reducedStoreBenchSet...)
	cfg := ReducedPipelineConfig{Reduced: reducedAcceptanceConfig(), Workers: 2}

	mem, err := Run(context.Background(), Request{Benchmarks: bs, Joint: true, Reduced: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), Request{
		Benchmarks: bs, Joint: true, Reduced: &cfg, Store: StoreOptions{Dir: filepath.Join(t.TempDir(), "store")},
	})
	if err != nil {
		t.Fatal(err)
	}
	want, got, stats := mem.JointReduced, rep.JointReduced, rep.Store
	if stats.WarmStarted {
		t.Error("fresh joint store run claims a warm start")
	}
	if !reflect.DeepEqual(got.Joint.Benchmarks, want.Joint.Benchmarks) {
		t.Fatalf("store-backed joint reduction covers %v, in-memory %v", got.Joint.Benchmarks, want.Joint.Benchmarks)
	}
	if got.Joint.Vectors != nil {
		t.Error("store-backed joint reduction materialized the joint matrix")
	}
	for i, name := range got.Joint.Benchmarks {
		if d := maxRelDiff(got.Chars[i][:], want.Chars[i][:]); d > 0.05 {
			t.Errorf("%s: store-backed joint characteristics deviate %.4f from in-memory (>5%%)", name, d)
		}
		if d := maxRelDiff(got.HPC[i][:], want.HPC[i][:]); d > 0.05 {
			t.Errorf("%s: store-backed joint HPC deviates %.4f from in-memory (>5%%)", name, d)
		}
	}
}

// TestJointStoreWarmStartIncremental is the warm-start acceptance
// regression: an incremental rerun after a one-benchmark change
// re-characterizes exactly that benchmark, takes the warm path, and
// converges to the fresh-start vocabulary's K.
func TestJointStoreWarmStartIncremental(t *testing.T) {
	names := []string{"MiBench/sha/large", "CommBench/drr/drr", "SPEC2000/gzip/program"}
	bs := storeBenchmarks(t, names...)
	dir := filepath.Join(t.TempDir(), "store")
	profiled := 0
	pcfg := PhasePipelineConfig{
		Phase:    storeTestConfig,
		Workers:  1,
		Progress: func(done, total int, name string) { profiled++ },
	}
	opt := StoreOptions{Dir: dir, Incremental: true, WarmStart: true}
	jointStore := func(pcfg PhasePipelineConfig) (*PhaseJointResult, *StoreBuildStats, error) {
		rep, err := Run(context.Background(), Request{Benchmarks: bs, Joint: true, Phases: &pcfg, Store: opt})
		if err != nil {
			return nil, nil, err
		}
		return rep.Joint, rep.Store, nil
	}

	fresh, stats, err := jointStore(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.WarmStarted {
		t.Error("fresh build claims a warm start (no state existed)")
	}
	if _, err := os.Stat(filepath.Join(dir, warmAuxName)); err != nil {
		t.Fatalf("warm state not persisted next to the store: %v", err)
	}

	// Unchanged rerun: everything reused, warm path taken, identical K.
	profiled = 0
	again, stats, err := jointStore(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	if profiled != 0 || len(stats.Reused) != len(bs) {
		t.Fatalf("unchanged rerun profiled %d, stats %+v", profiled, stats)
	}
	if !stats.WarmStarted {
		t.Error("unchanged rerun did not take the warm path")
	}
	if again.K != fresh.K {
		t.Errorf("warm rerun chose K=%d, fresh K=%d", again.K, fresh.K)
	}
	if !reflect.DeepEqual(again.Assign, fresh.Assign) {
		t.Error("warm rerun on identical data changed the assignment")
	}

	// One-benchmark change (vanished shard): exactly it is rebuilt, the
	// warm state still applies (the data is re-characterized
	// identically, so the statistics have not drifted), and the
	// vocabulary converges to the fresh K.
	if err := os.Remove(filepath.Join(dir, shardFileOf(t, dir, names[1]))); err != nil {
		t.Fatal(err)
	}
	profiled = 0
	warm, stats, err := jointStore(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	if profiled != 1 || !reflect.DeepEqual(stats.Characterized, []string{names[1]}) {
		t.Fatalf("one-benchmark change re-characterized %v (progress %d), want just %s",
			stats.Characterized, profiled, names[1])
	}
	if !stats.WarmStarted {
		t.Error("incremental rerun did not take the warm path")
	}
	if warm.K != fresh.K {
		t.Errorf("incremental warm rerun chose K=%d, fresh K=%d", warm.K, fresh.K)
	}

	// A configuration change invalidates the warm state along with the
	// shards (the stamp changed), falling back to fresh seeding.
	changed := pcfg
	changed.Phase.IntervalLen = 600
	_, stats, err = jointStore(changed)
	if err != nil {
		t.Fatal(err)
	}
	if stats.WarmStarted {
		t.Error("config change reused a stale warm state")
	}
}

// maxRelDiff is the largest per-element relative difference, with the
// same tiny-denominator guard the pipeline's error scoring uses.
func maxRelDiff(got, want []float64) float64 {
	worst := 0.0
	for i := range got {
		den := math.Abs(want[i])
		if den < 1e-9 {
			den = 1e-9
		}
		if d := math.Abs(got[i]-want[i]) / den; d > worst {
			worst = d
		}
	}
	return worst
}
