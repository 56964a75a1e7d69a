// Command mica-select runs the paper's two key-characteristic selection
// methods — correlation elimination (Section V-A) and the genetic
// algorithm (Section V-B) — and reports the retained characteristics,
// their distance correlation against the full 47-D space (Figure 5), and
// the Table IV subset.
//
// Usage:
//
//	mica-select -results cache.json
//	mica-select -budget 100000 -seed 7
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"mica"
	"mica/internal/obs"
	"mica/internal/report"
)

func main() {
	var (
		budget  = flag.Uint64("budget", 300_000, "dynamic instruction budget per benchmark")
		results = flag.String("results", "", "JSON results cache")
		seed    = flag.Int64("seed", 2006, "GA seed")
		version = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(obs.Build())
		return
	}
	if err := run(*budget, *results, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "mica-select:", err)
		os.Exit(1)
	}
}

func run(budget uint64, resultsPath string, seed int64) error {
	var results []mica.ProfileResult
	var err error
	if resultsPath != "" {
		// A cache profiled at another budget is a miss.
		cached, cachedBudget, loadErr := mica.LoadResults(resultsPath)
		switch {
		case loadErr == nil && cachedBudget == budget:
			results = cached
		case loadErr == nil:
			fmt.Fprintf(os.Stderr, "%s holds budget %d, not %d: re-profiling\n",
				resultsPath, cachedBudget, budget)
		}
	}
	if results == nil {
		cfg := mica.DefaultConfig()
		cfg.InstBudget = budget
		cfg.Progress = func(done, total int, name string) {
			fmt.Fprintf(os.Stderr, "\r[%3d/%3d] %-60s", done, total, name)
		}
		results, err = mica.ProfileBenchmarksCtx(context.Background(), mica.Benchmarks(), cfg)
		fmt.Fprintln(os.Stderr)
	}
	if err != nil {
		return err
	}

	s := mica.NewSpace(results)
	ga := s.GASelect(seed)
	ce := s.CorrelationElimination()
	curve := s.CECurve()

	fmt.Printf("genetic algorithm: %d characteristics, rho = %.3f, fitness = %.3f\n\n",
		len(ga.Selected), ga.Rho, ga.Fitness)
	t := report.NewTable("#", "characteristic", "category")
	for i, c := range ga.Selected {
		t.AddRow(i+1, mica.CharName(c), mica.CharCategory(c))
	}
	fmt.Print(t.String())

	fmt.Printf("\ncorrelation elimination (Figure 5 series):\n")
	ct := report.NewTable("retained", "rho", "retained characteristics (small sizes)")
	for _, k := range []int{47, 32, 24, 17, 12, 8, 7, 4, 2, 1} {
		names := ""
		if k <= 8 {
			for i, c := range ce.Retained(k) {
				if i > 0 {
					names += ", "
				}
				names += mica.CharName(c)
			}
		}
		ct.AddRow(k, curve[k-1], names)
	}
	fmt.Print(ct.String())

	fmt.Printf("\nGA rho %.3f at size %d vs CE rho %.3f at the same size\n",
		ga.Rho, len(ga.Selected), curve[len(ga.Selected)-1])

	// PCA baseline (Section V-C): dimensions needed for 90%% variance.
	p := s.PCA()
	fmt.Printf("PCA baseline: %d components explain 90%% of variance (but require measuring all %d characteristics)\n",
		p.ComponentsNeeded(0.9), mica.NumChars)
	return nil
}
