// Command mica-cluster groups the benchmarks into similarly behaving
// clusters (Figure 6): k-means with BIC-selected K over the GA-selected
// key characteristics, printed as cluster listings and optional kiviat
// diagrams (ASCII to stdout, SVG files with -svg).
//
// Usage:
//
//	mica-cluster -results cache.json -kiviat
//	mica-cluster -svg plots/ -maxk 40
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"mica"
	"mica/internal/obs"
)

func main() {
	var (
		budget  = flag.Uint64("budget", 300_000, "dynamic instruction budget per benchmark")
		results = flag.String("results", "", "JSON results cache")
		maxK    = flag.Int("maxk", 70, "maximum K for the BIC sweep")
		seed    = flag.Int64("seed", 2006, "GA and k-means seed")
		kiviat  = flag.Bool("kiviat", false, "print ASCII kiviat diagrams per benchmark")
		svgDir  = flag.String("svg", "", "write one SVG kiviat per benchmark into this directory")
		useAll  = flag.Bool("all-chars", false, "cluster in the full 47-D space instead of the GA key space")
		hier    = flag.Bool("hier", false, "also print a complete-linkage hierarchical clustering cut at the same K")
		version = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(obs.Build())
		return
	}
	if err := run(*budget, *results, *maxK, *seed, *kiviat, *svgDir, *useAll, *hier); err != nil {
		fmt.Fprintln(os.Stderr, "mica-cluster:", err)
		os.Exit(1)
	}
}

func run(budget uint64, resultsPath string, maxK int, seed int64, kiviat bool, svgDir string, useAll, hier bool) error {
	var res []mica.ProfileResult
	var err error
	if resultsPath != "" {
		// A cache profiled at another budget is a miss.
		cached, cachedBudget, loadErr := mica.LoadResults(resultsPath)
		switch {
		case loadErr == nil && cachedBudget == budget:
			res = cached
		case loadErr == nil:
			fmt.Fprintf(os.Stderr, "%s holds budget %d, not %d: re-profiling\n",
				resultsPath, cachedBudget, budget)
		}
	}
	if res == nil {
		cfg := mica.DefaultConfig()
		cfg.InstBudget = budget
		cfg.Progress = func(done, total int, name string) {
			fmt.Fprintf(os.Stderr, "\r[%3d/%3d] %-60s", done, total, name)
		}
		res, err = mica.ProfileBenchmarksCtx(context.Background(), mica.Benchmarks(), cfg)
		fmt.Fprintln(os.Stderr)
	}
	if err != nil {
		return err
	}

	s := mica.NewSpace(res)
	var cols []int
	label := "all 47 characteristics"
	if !useAll {
		ga := s.GASelect(seed)
		cols = ga.Selected
		names := make([]string, len(cols))
		for i, c := range cols {
			names[i] = mica.CharName(c)
		}
		label = fmt.Sprintf("%d GA-selected characteristics: %s",
			len(cols), strings.Join(names, ", "))
	}
	sel := s.Cluster(cols, maxK, seed)
	fmt.Printf("clustering space: %s\n", label)

	idxOf := map[string]int{}
	for i, n := range s.Names {
		idxOf[n] = i
	}
	// Report the populated group count: ClusterGroups drops cluster ids
	// k-means left unassigned, and the header must agree with the
	// groups printed below it.
	groups := s.ClusterGroups(sel)
	fmt.Printf("BIC-selected K = %d (max score %.1f), %d populated clusters\n\n",
		sel.Best.K, sel.MaxScore, len(groups))
	for gi, g := range groups {
		fmt.Printf("cluster %d (%d benchmarks):\n", gi+1, len(g))
		for _, name := range g {
			fmt.Printf("  %s\n", name)
		}
		if kiviat && cols != nil {
			for _, name := range g {
				d, err := s.Kiviat(idxOf[name], cols)
				if err != nil {
					return err
				}
				fmt.Println(d.ASCII(5))
			}
		}
	}

	if hier {
		dend := s.HierarchicalCluster(cols, mica.CompleteLinkage)
		assign := dend.Cut(sel.Best.K)
		hGroups := map[int][]string{}
		for i, c := range assign {
			hGroups[c] = append(hGroups[c], s.Names[i])
		}
		fmt.Printf("\ncomplete-linkage hierarchical clustering cut at K = %d:\n", sel.Best.K)
		for c := 0; c < sel.Best.K; c++ {
			if len(hGroups[c]) == 0 {
				continue
			}
			fmt.Printf("h-cluster %d (%d benchmarks):\n", c+1, len(hGroups[c]))
			for _, name := range hGroups[c] {
				fmt.Printf("  %s\n", name)
			}
		}
	}

	if svgDir != "" {
		if cols == nil {
			return fmt.Errorf("-svg requires the GA key space (drop -all-chars)")
		}
		if err := os.MkdirAll(svgDir, 0o755); err != nil {
			return err
		}
		for i, name := range s.Names {
			d, err := s.Kiviat(i, cols)
			if err != nil {
				return err
			}
			fname := strings.NewReplacer("/", "_", ".", "_").Replace(name) + ".svg"
			if err := os.WriteFile(filepath.Join(svgDir, fname), []byte(d.SVG(320)), 0o644); err != nil {
				return err
			}
		}
		fmt.Printf("wrote %d SVG kiviat diagrams to %s\n", len(s.Names), svgDir)
	}
	return nil
}
