package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mica"
)

// smallResults profiles a compact benchmark subset, including the
// Figure 2/3 pitfall pair, for render to analyze.
func smallResults(t *testing.T) []mica.ProfileResult {
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
	res, err := mica.ProfileBenchmarksCtx(context.Background(), bs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// capture redirects stdout during f and returns what was printed.
func capture(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r)
		done <- buf.String()
	}()
	ferr := f()
	w.Close()
	os.Stdout = old
	return <-done, ferr
}

// renderOne renders experiment exp of res to stdout and returns it.
func renderOne(t *testing.T, res []mica.ProfileResult, exp string, kiviats bool) string {
	t.Helper()
	out, err := capture(t, func() error { return render(res, "", exp, kiviats, 1) })
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRunAllExperimentsToDir(t *testing.T) {
	out := t.TempDir()
	if _, err := capture(t, func() error { return render(smallResults(t), out, "all", false, 1) }); err != nil {
		t.Fatal(err)
	}
	for _, name := range artifacts {
		data, err := os.ReadFile(filepath.Join(out, name+".txt"))
		if err != nil {
			t.Errorf("artifact %s missing: %v", name, err)
			continue
		}
		if len(data) < 30 {
			t.Errorf("artifact %s nearly empty", name)
		}
	}
	if _, err := os.Stat(filepath.Join(out, "fig6")); err == nil {
		t.Error("fig6 SVG directory written without -kiviat")
	}
}

func TestRunSingleExperiment(t *testing.T) {
	out := t.TempDir()
	if _, err := capture(t, func() error { return render(smallResults(t), out, "table3", false, 1) }); err != nil {
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

// TestRunUnknownExperiment: an unknown -exp fails before any work, so
// neither the results cache nor the output directory is created.
func TestRunUnknownExperiment(t *testing.T) {
	dir := t.TempDir()
	cache := filepath.Join(dir, "cache.json")
	out := filepath.Join(dir, "out")
	if err := run(2_000, out, cache, "fig99", false, 1); err == nil {
		t.Error("unknown experiment accepted")
	}
	for _, path := range []string{cache, out} {
		if _, err := os.Stat(path); err == nil {
			t.Errorf("unknown experiment created %s", path)
		}
	}
}

// TestSelectionArtifacts: table4, fig5 and pca carry the GA selection,
// the correlation-elimination series and the PCA baseline.
func TestSelectionArtifacts(t *testing.T) {
	res := smallResults(t)
	for exp, wants := range map[string][]string{
		"table4": {"selected by the GA", "rho =", "fitness ="},
		"fig5":   {"GA:", "retained", "CE rho"},
		"pca":    {"PCA baseline:", "components explain 90% of variance", "all 47 characteristics"},
	} {
		out := renderOne(t, res, exp, false)
		for _, want := range wants {
			if !strings.Contains(out, want) {
				t.Errorf("%s output missing %q:\n%s", exp, want, out)
			}
		}
	}
}

// TestFigure6Artifact: fig6 lists the clusters and, without -kiviat,
// draws no kiviats.
func TestFigure6Artifact(t *testing.T) {
	plain := renderOne(t, smallResults(t), "fig6", false)
	if !strings.Contains(plain, "Figure 6:") || !strings.Contains(plain, "cluster 1") {
		t.Errorf("fig6 output wrong:\n%s", plain)
	}
	if strings.Contains(plain, "kiviat diagrams") {
		t.Error("fig6 drew kiviats without -kiviat")
	}
}

// TestFigure6KiviatASCII: fig6 with -kiviat is the plain cluster
// listing followed by one ASCII kiviat per benchmark.
func TestFigure6KiviatASCII(t *testing.T) {
	res := smallResults(t)
	plain := renderOne(t, res, "fig6", false)
	kiv := renderOne(t, res, "fig6", true)
	if !strings.HasPrefix(kiv, plain[:len(plain)-1]) || !strings.Contains(kiv, "kiviat diagrams") || !strings.Contains(kiv, "*") {
		t.Errorf("fig6 -kiviat output wrong:\n%s", kiv)
	}
}

// TestKiviatSVGs: -out with -kiviat writes one SVG kiviat per
// benchmark into out/fig6.
func TestKiviatSVGs(t *testing.T) {
	res := smallResults(t)
	out := t.TempDir()
	if _, err := capture(t, func() error { return render(res, out, "fig6", true, 1) }); err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(filepath.Join(out, "fig6"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(res) {
		t.Fatalf("%d SVG files for %d benchmarks", len(files), len(res))
	}
	data, err := os.ReadFile(filepath.Join(out, "fig6", "SPEC2000_mcf_ref.svg"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "<svg") {
		t.Error("not an SVG file")
	}
}

// registryConfig is the configuration run profiles the registry with
// at budget 2000.
func registryConfig() mica.Config {
	cfg := mica.DefaultConfig()
	cfg.InstBudget = 2_000
	return cfg
}

// sameResults fails unless got and want hold the same benchmarks with
// bit-identical measurements.
func sameResults(t *testing.T, got, want []mica.ProfileResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	bits := func(v []float64) []uint64 {
		out := make([]uint64, len(v))
		for i, x := range v {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Benchmark.Name() != w.Benchmark.Name() || g.Insts != w.Insts ||
			!reflect.DeepEqual(bits(g.Chars[:]), bits(w.Chars[:])) || !reflect.DeepEqual(bits(g.HPC[:]), bits(w.HPC[:])) {
			t.Fatalf("result %d (%s) differs from a fresh profile", i, w.Benchmark.Name())
		}
	}
}

func TestObtainResultsCachesToNewDir(t *testing.T) {
	path := filepath.Join(t.TempDir(), "deep", "cache.json")
	cfg := registryConfig()
	bs := mica.Benchmarks()
	res, err := obtainResults(cfg, bs, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 122 {
		t.Fatalf("got %d results", len(res))
	}
	res2, err := obtainResults(cfg, bs, path)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, res2, res)
}

// TestSaveLoadResultsRoundTrip: a saved cache loads under its own
// stamp as a hit, bit-identical to what was saved.
func TestSaveLoadResultsRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	cfg := registryConfig()
	bs := mica.Benchmarks()
	res, err := obtainResults(cfg, bs, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := saveResults(path, stampOf(cfg, bs), res); err != nil {
		t.Fatal(err)
	}
	loaded, err := loadResults(path, stampOf(cfg, bs), bs)
	if err != nil {
		t.Fatalf("saved cache is a miss: %v", err)
	}
	sameResults(t, loaded, res)
}

// TestObtainResultsBudgetMismatchIsCacheMiss: a cache profiled at one
// -budget must not answer a run at another; the run re-profiles at its
// own budget and rewrites the cache.
func TestObtainResultsBudgetMismatchIsCacheMiss(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	bs := mica.Benchmarks()
	if _, err := obtainResults(registryConfig(), bs, path); err != nil {
		t.Fatal(err)
	}
	cfg := registryConfig()
	cfg.InstBudget = 3_000
	res, err := obtainResults(cfg, bs, path)
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
	if _, err := loadResults(path, stampOf(cfg, bs), bs); err != nil {
		t.Errorf("cache not rewritten for the 3000 run: %v", err)
	}
}

// TestObtainResultsBadCacheIsMiss: every cache that does not hold
// exactly the requested run is a miss that re-profiles the registry
// and rewrites a stamped file.
func TestObtainResultsBadCacheIsMiss(t *testing.T) {
	cfg := registryConfig()
	bs := mica.Benchmarks()
	fresh, err := obtainResults(cfg, bs, "")
	if err != nil {
		t.Fatal(err)
	}
	// rewrite edits a valid cache for the registry run in place.
	rewrite := func(t *testing.T, path string, edit func(rf *resultFile) any) {
		if err := saveResults(path, stampOf(cfg, bs), fresh); err != nil {
			t.Fatal(err)
		}
		var rf resultFile
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &rf)
		}
		if err == nil {
			data, err = json.Marshal(edit(&rf))
		}
		if err == nil {
			err = os.WriteFile(path, data, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	cases := map[string]func(t *testing.T, path string){
		"truncated JSON": func(t *testing.T, path string) {
			if err := saveResults(path, stampOf(cfg, bs), fresh); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"unknown benchmark name": func(t *testing.T, path string) {
			rewrite(t, path, func(rf *resultFile) any {
				rf.Results[3].Name = "NoSuite/none/none"
				return rf
			})
		},
		"wrong vector width": func(t *testing.T, path string) {
			rewrite(t, path, func(rf *resultFile) any {
				rf.Results[0].Chars = rf.Results[0].Chars[:mica.NumChars-1]
				return rf
			})
		},
		"unstamped parent format": func(t *testing.T, path string) {
			rewrite(t, path, func(rf *resultFile) any {
				return map[string]any{"inst_budget": cfg.InstBudget, "results": rf.Results}
			})
		},
		"PPMOrder 4": func(t *testing.T, path string) {
			other := cfg
			other.PPMOrder = 4
			if _, err := obtainResults(other, bs, path); err != nil {
				t.Fatal(err)
			}
		},
		"6 of 122 benchmarks": func(t *testing.T, path string) {
			if _, err := obtainResults(cfg, bs[:6], path); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, write := range cases {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "cache.json")
			write(t, path)
			if _, err := loadResults(path, stampOf(cfg, bs), bs); err == nil {
				t.Fatal("bad cache loads as a hit")
			}
			got, err := obtainResults(cfg, bs, path)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, got, fresh)
			loaded, err := loadResults(path, stampOf(cfg, bs), bs)
			if err != nil {
				t.Fatalf("miss did not rewrite a stamped cache: %v", err)
			}
			sameResults(t, loaded, fresh)
		})
	}
}

// TestResultsStampCoversConfig walks every mica.Config field: each must
// change the results stamp, or be listed here as output-neutral.
// Defaults stamp like the zero values they replace.
func TestResultsStampCoversConfig(t *testing.T) {
	neutral := map[string]string{
		"Workers":  "bounds parallelism; results are bit-identical at any worker count",
		"Progress": "a callback; reports progress, measures nothing",
	}
	bs := mica.Benchmarks()[:3]
	stamp := func(cfg mica.Config) string {
		data, err := json.Marshal(stampOf(cfg, bs))
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	base := stamp(mica.Config{})
	if got := stamp(mica.DefaultConfig()); got != base {
		t.Errorf("DefaultConfig stamps %s, zero Config %s", got, base)
	}
	if got := stamp(mica.Config{Subset: []bool{}}); got != base {
		t.Errorf("empty subset stamps %s, nil subset %s", got, base)
	}
	if got := stampOf(mica.Config{}, mica.Benchmarks()[:2]); len(got.Benchmarks) != 2 {
		t.Errorf("stamp covers %d benchmarks, want 2", len(got.Benchmarks))
	}
	ct := reflect.TypeOf(mica.Config{})
	for i := 0; i < ct.NumField(); i++ {
		f := ct.Field(i)
		var cfg mica.Config
		if !perturb(reflect.ValueOf(&cfg).Elem().Field(i)) {
			if neutral[f.Name] == "" {
				t.Errorf("Config.%s (%s) cannot be perturbed; key it or list it as neutral", f.Name, f.Type)
			}
			continue
		}
		changed := stamp(cfg) != base
		switch _, isNeutral := neutral[f.Name]; {
		case isNeutral && changed:
			t.Errorf("Config.%s is listed as neutral but changes the stamp", f.Name)
		case !isNeutral && !changed:
			t.Errorf("Config.%s does not change the results stamp", f.Name)
		}
	}
}

// perturb sets v to a value no default normalizes back to zero and
// reports whether its kind is supported.
func perturb(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 3)
	case reflect.Uint64:
		v.SetUint(v.Uint() + 7)
	case reflect.Float64:
		v.SetFloat(v.Float() + 0.5)
	case reflect.Slice:
		if v.Type().Elem().Kind() != reflect.Bool {
			return false
		}
		v.Set(reflect.ValueOf([]bool{true}))
	default:
		return false
	}
	return true
}
