package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mica"
)

// smallResults profiles a compact benchmark subset (including the
// Figure 2/3 pitfall pair) and caches it to a JSON file the command can
// consume.
func smallResults(t *testing.T) string {
	t.Helper()
	names := []string{
		"SPEC2000/bzip2/graphic",
		"BioInfoMark/blast/protein",
		"MiBench/sha/large",
		"SPEC2000/mcf/ref",
		"MediaBench/epic/test1",
		"CommBench/tcp/tcp",
	}
	var bs []mica.Benchmark
	for _, n := range names {
		b, err := mica.BenchmarkByName(n)
		if err != nil {
			t.Fatal(err)
		}
		bs = append(bs, b)
	}
	cfg := mica.DefaultConfig()
	cfg.InstBudget = 5_000
	res, err := mica.ProfileBenchmarks(bs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "results.json")
	if err := mica.SaveResults(path, cfg.InstBudget, res); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunAllExperimentsToDir(t *testing.T) {
	cache := smallResults(t)
	out := t.TempDir()
	if err := run(5_000, out, cache, "all", false, 1); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"table1", "table2", "fig1", "table3", "fig2",
		"fig3", "fig4", "fig5", "table4", "fig6", "suites"} {
		data, err := os.ReadFile(filepath.Join(out, name+".txt"))
		if err != nil {
			t.Errorf("artifact %s missing: %v", name, err)
			continue
		}
		if len(data) < 30 {
			t.Errorf("artifact %s nearly empty", name)
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	cache := smallResults(t)
	out := t.TempDir()
	if err := run(5_000, out, cache, "table3", false, 1); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(out, "table3.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "false negative") {
		t.Error("table3 content wrong")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	cache := smallResults(t)
	if err := run(5_000, t.TempDir(), cache, "fig99", false, 1); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestObtainResultsCachesToNewDir(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles all 122 benchmarks")
	}
	path := filepath.Join(t.TempDir(), "deep", "cache.json")
	res, err := obtainResults(2_000, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 122 {
		t.Fatalf("got %d results", len(res))
	}
	if _, err := os.Stat(path); err != nil {
		t.Errorf("cache not written: %v", err)
	}
	// Second call loads from cache.
	res2, err := obtainResults(2_000, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2) != 122 {
		t.Error("cache load wrong")
	}
}

// TestObtainResultsBudgetMismatchIsCacheMiss: a cache profiled at one
// -budget must not answer a run at another; the run re-profiles at its
// own budget and rewrites the cache.
func TestObtainResultsBudgetMismatchIsCacheMiss(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles all 122 benchmarks twice")
	}
	path := filepath.Join(t.TempDir(), "cache.json")
	if _, err := obtainResults(2_000, path); err != nil {
		t.Fatal(err)
	}
	res, err := obtainResults(3_000, path)
	if err != nil {
		t.Fatal(err)
	}
	var maxInsts uint64
	for _, r := range res {
		if r.Insts > 3_000 {
			t.Errorf("%s ran %d instructions past the 3000 budget", r.Benchmark.Name(), r.Insts)
		}
		maxInsts = max(maxInsts, r.Insts)
	}
	if maxInsts != 3_000 {
		t.Errorf("longest run is %d instructions, want the 3000 budget (stale 2000 cache served?)", maxInsts)
	}
	_, cached, err := mica.LoadResults(path)
	if err != nil {
		t.Fatal(err)
	}
	if cached != 3_000 {
		t.Errorf("cache records budget %d after a 3000 run, want 3000", cached)
	}
}
