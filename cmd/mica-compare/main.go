// Command mica-compare regenerates every table and figure of the paper's
// evaluation: Table I (registry), Table II (characteristics), Figure 1
// (distance scatter), Table III (tuple classification), Figures 2-3 (the
// bzip2-vs-blast pitfall), Figure 4 (ROC curves), Figure 5 (correlation
// vs subset size), Table IV (GA-selected characteristics) and Figure 6
// (clusters with kiviat diagrams), plus the Section V-C PCA baseline
// (pca).
//
// Usage:
//
//	mica-compare -out out/                  # profile everything, write all artifacts
//	mica-compare -results cache.json -out out/ -kiviat
//	mica-compare -exp fig4                  # print one experiment to stdout
//
// -results caches the profiling run: a file holding the same budget,
// profiler configuration and benchmark list is loaded, anything else
// is re-profiled and overwritten. With -out, -kiviat also writes one
// SVG kiviat diagram per benchmark into out/fig6/.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"mica"
	"mica/internal/obs"
)

func main() {
	var (
		budget  = flag.Uint64("budget", 300_000, "dynamic instruction budget per benchmark")
		outDir  = flag.String("out", "", "directory for experiment artifacts (stdout when empty)")
		results = flag.String("results", "", "JSON results cache (loaded if it holds this run, else written after profiling)")
		exp     = flag.String("exp", "all", "experiment: all|"+strings.Join(artifacts, "|"))
		kiviats = flag.Bool("kiviat", false, "include per-benchmark kiviat diagrams in fig6 (with -out, also fig6/*.svg)")
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

// artifacts names every experiment, in -exp all order.
var artifacts = []string{"table1", "table2", "fig1", "table3", "fig2", "fig3",
	"fig4", "fig5", "table4", "fig6", "suites", "pca"}

func run(budget uint64, outDir, resultsPath, exp string, kiviats bool, seed int64) error {
	if exp != "all" && !slices.Contains(artifacts, exp) {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	cfg := mica.DefaultConfig()
	cfg.InstBudget = budget
	cfg.Progress = func(done, total int, name string) {
		fmt.Fprintf(os.Stderr, "\r[%3d/%3d] %-60s", done, total, name)
	}
	results, err := obtainResults(cfg, mica.Benchmarks(), resultsPath)
	if err != nil {
		return err
	}
	return render(results, outDir, exp, kiviats, seed)
}

// render analyzes results and emits experiment exp ("all" or one of
// artifacts) to stdout, or as NAME.txt files under outDir. With
// kiviats and outDir, Figure 6 also gets one SVG kiviat per benchmark
// in outDir/fig6, over the GA-selected axes.
func render(results []mica.ProfileResult, outDir, exp string, kiviats bool, seed int64) error {
	acfg := mica.DefaultAnalysisConfig()
	acfg.GASeed = seed
	acfg.ClusterSeed = seed
	fmt.Fprintln(os.Stderr, "analyzing...")
	a := mica.Analyze(results, acfg)

	gen := map[string]func() string{
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
		"pca": func() string {
			// Section V-C's baseline: dimensions needed for 90% variance.
			return fmt.Sprintf("PCA baseline: %d components explain 90%% of variance (but require measuring all %d characteristics)\n",
				a.Space.PCA().ComponentsNeeded(0.9), mica.NumChars)
		},
	}
	names := artifacts
	if exp != "all" {
		names = []string{exp}
	}
	if outDir == "" {
		for _, name := range names {
			fmt.Printf("==== %s ====\n%s\n", name, gen[name]())
		}
		return nil
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	for _, name := range names {
		if err := os.WriteFile(filepath.Join(outDir, name+".txt"), []byte(gen[name]()), 0o644); err != nil {
			return err
		}
	}
	if exp == "all" {
		fmt.Printf("wrote %d artifacts to %s\n", len(names), outDir)
	}
	if kiviats && slices.Contains(names, "fig6") {
		return writeKiviatSVGs(a, filepath.Join(outDir, "fig6"))
	}
	return nil
}

// writeKiviatSVGs writes one SVG kiviat diagram per benchmark into dir,
// named after the benchmark with "/" and "." replaced by "_".
func writeKiviatSVGs(a *mica.Analysis, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	fileName := strings.NewReplacer("/", "_", ".", "_")
	for i, name := range a.Space.Names {
		d, err := a.Space.Kiviat(i, a.GA.Selected)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, fileName.Replace(name)+".svg"), []byte(d.SVG(320)), 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("wrote %d kiviat SVGs to %s\n", a.Space.Len(), dir)
	return nil
}
