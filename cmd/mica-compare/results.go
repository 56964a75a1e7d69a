package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"

	"mica"
)

// resultFile is the JSON on-disk form of a profiling run, so the
// expensive measurement step can be cached between invocations. A file
// answers a run only if its stamp equals the run's; a file without one
// never does.
type resultFile struct {
	Stamp   *resultsStamp `json:"stamp"`
	Results []resultJSON  `json:"results"`
}

// resultsStamp is everything a cached run's results depend on: each
// mica.Config field that changes a ProfileResult, with its default
// applied, and the ordered benchmark names. Config.Workers and
// Config.Progress change neither the numbers nor their order.
type resultsStamp struct {
	InstBudget uint64   `json:"inst_budget"`
	PPMOrder   int      `json:"ppm_order"`
	NoMemDeps  bool     `json:"no_mem_deps"`
	Subset     []bool   `json:"subset,omitempty"`
	SkipHPC    bool     `json:"skip_hpc"`
	Benchmarks []string `json:"benchmarks"`
}

type resultJSON struct {
	Name  string    `json:"name"`
	Chars []float64 `json:"chars"`
	HPC   []float64 `json:"hpc"`
	Insts uint64    `json:"insts"`
}

// stampOf returns the stamp of profiling bs under cfg. An empty subset
// means "all characteristics" like nil, and stamps like it.
func stampOf(cfg mica.Config, bs []mica.Benchmark) resultsStamp {
	def := mica.DefaultConfig()
	if cfg.InstBudget == 0 {
		cfg.InstBudget = def.InstBudget
	}
	if cfg.PPMOrder == 0 {
		cfg.PPMOrder = def.PPMOrder
	}
	if len(cfg.Subset) == 0 {
		cfg.Subset = nil
	}
	names := make([]string, len(bs))
	for i, b := range bs {
		names[i] = b.Name()
	}
	return resultsStamp{
		InstBudget: cfg.InstBudget,
		PPMOrder:   cfg.PPMOrder,
		NoMemDeps:  cfg.NoMemDeps,
		Subset:     cfg.Subset,
		SkipHPC:    cfg.SkipHPC,
		Benchmarks: names,
	}
}

// obtainResults returns bs profiled under cfg, from the cache at path
// when it holds exactly that run. Anything else there (no file, a
// file that fails to decode or validate, another stamp) is a miss:
// the run is profiled and path rewritten. An empty path profiles
// without caching.
func obtainResults(cfg mica.Config, bs []mica.Benchmark, path string) ([]mica.ProfileResult, error) {
	want := stampOf(cfg, bs)
	if path != "" {
		results, err := loadResults(path, want, bs)
		if err == nil {
			fmt.Fprintf(os.Stderr, "loaded %d results (budget %d) from %s\n",
				len(results), want.InstBudget, path)
			return results, nil
		}
		if !errors.Is(err, fs.ErrNotExist) {
			fmt.Fprintf(os.Stderr, "%v: re-profiling\n", err)
		}
	}
	results, err := mica.ProfileBenchmarksCtx(context.Background(), bs, cfg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(os.Stderr)
	if path != "" {
		if err := saveResults(path, want, results); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "cached results to %s\n", path)
	}
	return results, nil
}

// saveResults writes results under stamp to path, creating its
// directory.
func saveResults(path string, stamp resultsStamp, results []mica.ProfileResult) error {
	rf := resultFile{Stamp: &stamp}
	for _, r := range results {
		rf.Results = append(rf.Results, resultJSON{
			Name:  r.Benchmark.Name(),
			Chars: r.Chars[:],
			HPC:   r.HPC[:],
			Insts: r.Insts,
		})
	}
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return fmt.Errorf("encoding results: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// loadResults reads the results cached at path if they were profiled
// under want, whose Benchmarks name bs in order; any difference is an
// error naming it.
func loadResults(path string, want resultsStamp, bs []mica.Benchmark) ([]mica.ProfileResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	if rf.Stamp == nil {
		return nil, fmt.Errorf("%s has no stamp", path)
	}
	if !reflect.DeepEqual(*rf.Stamp, want) {
		return nil, fmt.Errorf("%s holds another configuration or benchmark set", path)
	}
	if len(rf.Results) != len(bs) {
		return nil, fmt.Errorf("%s holds %d results, want %d", path, len(rf.Results), len(bs))
	}
	out := make([]mica.ProfileResult, len(bs))
	for i, rj := range rf.Results {
		if rj.Name != want.Benchmarks[i] {
			return nil, fmt.Errorf("%s: result %d is %q, want %q", path, i, rj.Name, want.Benchmarks[i])
		}
		if len(rj.Chars) != mica.NumChars || len(rj.HPC) != mica.NumHPCMetrics {
			return nil, fmt.Errorf("%s: %s has %d/%d metrics, want %d/%d",
				path, rj.Name, len(rj.Chars), len(rj.HPC), mica.NumChars, mica.NumHPCMetrics)
		}
		out[i] = mica.ProfileResult{Benchmark: bs[i], Insts: rj.Insts}
		copy(out[i].Chars[:], rj.Chars)
		copy(out[i].HPC[:], rj.HPC)
	}
	return out, nil
}
