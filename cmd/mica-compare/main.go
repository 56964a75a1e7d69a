// Command mica-compare regenerates every table and figure of the paper's
// evaluation: Table I (registry), Table II (characteristics), Figure 1
// (distance scatter), Table III (tuple classification), Figures 2-3 (the
// bzip2-vs-blast pitfall), Figure 4 (ROC curves), Figure 5 (correlation
// vs subset size), Table IV (GA-selected characteristics) and Figure 6
// (clusters with kiviat diagrams).
//
// Usage:
//
//	mica-compare -out out/                  # profile everything, write all artifacts
//	mica-compare -results cache.json -out out/
//	mica-compare -exp fig4                  # print one experiment to stdout
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"mica"
	"mica/internal/obs"
)

func main() {
	var (
		budget  = flag.Uint64("budget", 300_000, "dynamic instruction budget per benchmark")
		outDir  = flag.String("out", "", "directory for experiment artifacts (stdout when empty)")
		results = flag.String("results", "", "JSON results cache (loaded if present, written after profiling)")
		exp     = flag.String("exp", "all", "experiment: all|table1|table2|fig1|table3|fig2|fig3|fig4|fig5|table4|fig6|suites")
		kiviats = flag.Bool("kiviat", false, "include per-benchmark kiviat diagrams in fig6")
		seed    = flag.Int64("seed", 2006, "seed for the GA and k-means")
		version = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(obs.Build())
		return
	}
	if err := run(*budget, *outDir, *results, *exp, *kiviats, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "mica-compare:", err)
		os.Exit(1)
	}
}

func run(budget uint64, outDir, resultsPath, exp string, kiviats bool, seed int64) error {
	results, err := obtainResults(budget, resultsPath)
	if err != nil {
		return err
	}
	acfg := mica.DefaultAnalysisConfig()
	acfg.GASeed = seed
	acfg.ClusterSeed = seed
	fmt.Fprintln(os.Stderr, "analyzing...")
	a := mica.Analyze(results, acfg)

	artifacts := map[string]func() string{
		"table1": func() string { return mica.RenderTableI(results) },
		"table2": func() string { return mica.RenderTableII(results) },
		"fig1":   a.RenderFigure1,
		"table3": a.RenderTableIII,
		"fig2":   a.RenderFigure2,
		"fig3":   a.RenderFigure3,
		"fig4":   a.RenderFigure4,
		"fig5":   a.RenderFigure5,
		"table4": a.RenderTableIV,
		"fig6":   func() string { return a.RenderFigure6(kiviats) },
		"suites": a.SuiteSimilarityReport,
	}
	order := []string{"table1", "table2", "fig1", "table3", "fig2", "fig3",
		"fig4", "fig5", "table4", "fig6", "suites"}

	emit := func(name, content string) error {
		if outDir == "" {
			fmt.Printf("==== %s ====\n%s\n", name, content)
			return nil
		}
		path := filepath.Join(outDir, name+".txt")
		return os.WriteFile(path, []byte(content), 0o644)
	}

	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
	}
	if exp == "all" {
		for _, name := range order {
			if err := emit(name, artifacts[name]()); err != nil {
				return err
			}
		}
		if outDir != "" {
			fmt.Printf("wrote %d artifacts to %s\n", len(order), outDir)
		}
		return nil
	}
	gen, ok := artifacts[exp]
	if !ok {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return emit(exp, gen())
}

// obtainResults loads cached profiling results or measures everything.
// A cache profiled at another budget is a miss: it is re-profiled at
// budget and overwritten.
func obtainResults(budget uint64, path string) ([]mica.ProfileResult, error) {
	if path != "" {
		results, cachedBudget, err := mica.LoadResults(path)
		switch {
		case err == nil && cachedBudget == budget:
			fmt.Fprintf(os.Stderr, "loaded %d results (budget %d) from %s\n",
				len(results), cachedBudget, path)
			return results, nil
		case err == nil:
			fmt.Fprintf(os.Stderr, "%s holds budget %d, not %d: re-profiling\n",
				path, cachedBudget, budget)
		}
	}
	cfg := mica.DefaultConfig()
	cfg.InstBudget = budget
	cfg.Progress = func(done, total int, name string) {
		fmt.Fprintf(os.Stderr, "\r[%3d/%3d] %-60s", done, total, name)
	}
	results, err := mica.ProfileBenchmarksCtx(context.Background(), mica.Benchmarks(), cfg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(os.Stderr)
	if path != "" {
		if dir := filepath.Dir(path); dir != "." {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, err
			}
		}
		if err := mica.SaveResults(path, budget, results); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "cached results to %s\n", path)
	}
	return results, nil
}
