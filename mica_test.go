package mica

import (
	"context"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

// testConfig returns a fast profiling configuration for tests.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.InstBudget = 40_000
	return cfg
}

// profileSubset profiles every n-th benchmark (cached across tests).
func profileSubset(t *testing.T, stride int) []ProfileResult {
	t.Helper()
	var picks []Benchmark
	for i, b := range Benchmarks() {
		if i%stride == 0 {
			picks = append(picks, b)
		}
	}
	res, err := ProfileBenchmarksCtx(context.Background(), picks, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRegistryHas122(t *testing.T) {
	if len(Benchmarks()) != 122 {
		t.Fatalf("registry has %d benchmarks, want 122", len(Benchmarks()))
	}
	if len(SuiteNames()) != 6 {
		t.Fatal("want 6 suites")
	}
}

func TestProfileSingleBenchmark(t *testing.T) {
	b, err := BenchmarkByName("MiBench/sha/large")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Profile(b, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Insts != 40_000 {
		t.Errorf("profiled %d instructions, want 40000", res.Insts)
	}
	// sha is integer-only with tiny working set.
	if res.Chars[5] != 0 { // pct_fp
		t.Errorf("sha FP fraction = %g, want 0", res.Chars[5])
	}
	mixSum := res.Chars[0] + res.Chars[1] + res.Chars[2] + res.Chars[3] + res.Chars[4] + res.Chars[5]
	if math.Abs(mixSum-1) > 1e-9 {
		t.Errorf("instruction mix sums to %g", mixSum)
	}
	if res.HPC[0] <= 0 || res.HPC[1] <= 0 {
		t.Error("HPC IPCs not populated")
	}
}

func TestProfileDeterministic(t *testing.T) {
	b, err := BenchmarkByName("CommBench/tcp/tcp")
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Profile(b, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Profile(b, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Chars != r2.Chars || r1.HPC != r2.HPC {
		t.Error("profiling is not deterministic")
	}
}

func TestSubsetProfilingSkipsCharacteristics(t *testing.T) {
	b, err := BenchmarkByName("MiBench/CRC32/large")
	if err != nil {
		t.Fatal(err)
	}
	subset := make([]bool, NumChars)
	subset[0] = true // pct_loads only
	cfg := testConfig()
	cfg.Subset = subset
	cfg.SkipHPC = true
	res, err := Profile(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Chars[0] == 0 {
		t.Error("selected characteristic not measured")
	}
	for c := 6; c < NumChars; c++ {
		if res.Chars[c] != 0 {
			t.Errorf("unselected characteristic %s measured", CharName(c))
		}
	}
}

func TestEndToEndAnalysis(t *testing.T) {
	res := profileSubset(t, 4) // ~31 benchmarks
	cfg := DefaultAnalysisConfig()
	cfg.ClusterMaxK = 20
	a := Analyze(res, cfg)

	if a.Rho <= 0 || a.Rho >= 0.999 {
		t.Errorf("distance correlation rho = %.3f; expect modest positive correlation", a.Rho)
	}
	fn, tp, tn, fp := a.Tuples.Fractions()
	if math.Abs(fn+tp+tn+fp-1) > 1e-9 {
		t.Error("quadrant fractions do not sum to 1")
	}
	// The paper's headline: false negatives are rare.
	if fn > 0.1 {
		t.Errorf("false negative fraction = %.2f, want small", fn)
	}
	if len(a.GA.Selected) == 0 || len(a.GA.Selected) >= NumChars {
		t.Errorf("GA selected %d characteristics", len(a.GA.Selected))
	}
	if a.GA.Rho < 0.7 {
		t.Errorf("GA subset rho = %.3f, want substantial", a.GA.Rho)
	}
	if a.AUCAll <= 0.5 {
		t.Errorf("AUC(all) = %.3f, want > 0.5", a.AUCAll)
	}
	// GA must beat CE at comparable cardinality (the paper's claim).
	ceRhoAtGA := a.CECurve[len(a.GA.Selected)-1]
	if a.GA.Rho+1e-9 < ceRhoAtGA {
		t.Errorf("GA rho %.3f below CE rho %.3f at equal size", a.GA.Rho, ceRhoAtGA)
	}
	if a.Clusters.Best.K < 2 {
		t.Errorf("clustering degenerated to K=%d", a.Clusters.Best.K)
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	res := profileSubset(t, 6)
	cfg := DefaultAnalysisConfig()
	cfg.ClusterMaxK = 10
	a := Analyze(res, cfg)

	for name, s := range map[string]string{
		"TableI":   RenderTableI(res),
		"TableII":  RenderTableII(res),
		"Figure1":  a.RenderFigure1(),
		"TableIII": a.RenderTableIII(),
		"Figure4":  a.RenderFigure4(),
		"Figure5":  a.RenderFigure5(),
		"TableIV":  a.RenderTableIV(),
		"Figure6":  a.RenderFigure6(false),
		"Suites":   a.SuiteSimilarityReport(),
	} {
		if len(s) < 40 {
			t.Errorf("%s renderer produced almost nothing: %q", name, s)
		}
	}
}

func TestPitfallRenderersNeedPair(t *testing.T) {
	// With the pitfall pair present, Figures 2 and 3 render tables.
	bz, err := BenchmarkByName("SPEC2000/bzip2/graphic")
	if err != nil {
		t.Fatal(err)
	}
	bl, err := BenchmarkByName("BioInfoMark/blast/protein")
	if err != nil {
		t.Fatal(err)
	}
	res, err := ProfileBenchmarksCtx(context.Background(), []Benchmark{bz, bl}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultAnalysisConfig()
	cfg.ClusterMaxK = 2
	a := Analyze(res, cfg)
	if !strings.Contains(a.RenderFigure2(), "ipc_ev56") {
		t.Error("Figure 2 missing HPC metrics")
	}
	if !strings.Contains(a.RenderFigure3(), "dws_4kb_pages") {
		t.Error("Figure 3 missing characteristics")
	}
}

func TestSaveLoadResultsRoundTrip(t *testing.T) {
	res := profileSubset(t, 20)
	path := filepath.Join(t.TempDir(), "results.json")
	if err := SaveResults(path, 40_000, res); err != nil {
		t.Fatal(err)
	}
	loaded, budget, err := LoadResults(path)
	if err != nil {
		t.Fatal(err)
	}
	if budget != 40_000 {
		t.Errorf("budget = %d", budget)
	}
	if len(loaded) != len(res) {
		t.Fatalf("loaded %d results, want %d", len(loaded), len(res))
	}
	for i := range res {
		if loaded[i].Chars != res[i].Chars || loaded[i].HPC != res[i].HPC {
			t.Fatalf("result %d changed in round trip", i)
		}
		if loaded[i].Benchmark.Name() != res[i].Benchmark.Name() {
			t.Fatalf("result %d benchmark identity lost", i)
		}
	}
}

func TestLoadResultsRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := SaveResults(path, 1, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadResults(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestKiviatFromSpace(t *testing.T) {
	res := profileSubset(t, 12)
	s := NewSpace(res)
	d, err := s.Kiviat(0, []int{0, 6, 19, 43})
	if err != nil {
		t.Fatal(err)
	}
	out := d.ASCII(5)
	if !strings.Contains(out, s.Names[0]) {
		t.Error("kiviat missing title")
	}
	if _, err := s.Kiviat(-1, []int{0}); err == nil {
		t.Error("out-of-range benchmark accepted")
	}
}

func TestHierarchicalClusterOnSpace(t *testing.T) {
	res := profileSubset(t, 8)
	s := NewSpace(res)
	d := s.HierarchicalCluster(nil, CompleteLinkage)
	if len(d.Merges) != s.Len()-1 {
		t.Fatalf("got %d merges for %d benchmarks", len(d.Merges), s.Len())
	}
	assign := d.Cut(4)
	seen := map[int]bool{}
	for _, c := range assign {
		seen[c] = true
	}
	if len(seen) != 4 {
		t.Errorf("Cut(4) produced %d clusters", len(seen))
	}
}

func TestSpaceDistancesConsistent(t *testing.T) {
	res := profileSubset(t, 10)
	s := NewSpace(res)
	all := make([]int, NumChars)
	for i := range all {
		all[i] = i
	}
	full := s.SubsetDistances(all)
	for i := range full {
		if math.Abs(full[i]-s.CharDist[i]) > 1e-9 {
			t.Fatal("subset-all distances disagree with CharDist")
		}
	}
	if rho := s.SubsetRho(all); math.Abs(rho-1) > 1e-12 {
		t.Errorf("rho of full subset = %g", rho)
	}
}

// TestRegistryAccessorsReturnCopies pins the aliasing contract of the
// public registry accessors: callers mutating returned slices must not be
// able to corrupt the Table I registry.
func TestRegistryAccessorsReturnCopies(t *testing.T) {
	b := Benchmarks()
	b[0].Program = "mutated"
	if Benchmarks()[0].Program == "mutated" {
		t.Error("Benchmarks exposes registry storage")
	}
	s := BenchmarksBySuite("SPEC2000")
	s[0].Program = "mutated"
	if BenchmarksBySuite("SPEC2000")[0].Program == "mutated" {
		t.Error("BenchmarksBySuite exposes registry storage")
	}
	n := SuiteNames()
	n[0] = "mutated"
	if SuiteNames()[0] == "mutated" {
		t.Error("SuiteNames exposes registry storage")
	}
}

// TestZeroConfigMatchesDefaultConfig pins the Config zero-value
// contract: Profile(b, Config{}) must measure exactly what
// Profile(b, DefaultConfig()) measures. Before the NoMemDeps inversion,
// a zero Config silently disabled store-to-load dependence tracking and
// produced different ILP characteristics.
func TestZeroConfigMatchesDefaultConfig(t *testing.T) {
	b, err := BenchmarkByName("MiBench/qsort/large")
	if err != nil {
		t.Fatal(err)
	}
	zero, err := Profile(b, Config{})
	if err != nil {
		t.Fatal(err)
	}
	def, err := Profile(b, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if zero.Insts != def.Insts {
		t.Fatalf("instruction counts diverge: %d vs %d", zero.Insts, def.Insts)
	}
	if zero.Chars != def.Chars {
		t.Error("zero Config characteristic vector diverges from DefaultConfig")
	}
	if zero.HPC != def.HPC {
		t.Error("zero Config HPC vector diverges from DefaultConfig")
	}
}
