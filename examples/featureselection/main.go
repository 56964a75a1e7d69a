// Featureselection reproduces the Section V methodology comparison on a
// live profiling run: correlation elimination versus the genetic
// algorithm versus the PCA baseline, reporting the Figure 5 trade-off
// (distance correlation against number of characteristics to measure)
// and the measurement-cost saving of the selected subset.
//
//	go run ./examples/featureselection
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"mica"
)

func main() {
	cfg := mica.DefaultConfig()
	cfg.InstBudget = 100_000
	cfg.Progress = func(done, total int, name string) {
		fmt.Fprintf(os.Stderr, "\r[%3d/%3d] %-60s", done, total, name)
	}
	results, err := mica.ProfileBenchmarksCtx(context.Background(), mica.Benchmarks(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintln(os.Stderr)

	s := mica.NewSpace(results)

	ga := s.GASelect(2006)
	fmt.Printf("genetic algorithm selected %d of %d characteristics (rho = %.3f):\n",
		len(ga.Selected), mica.NumChars, ga.Rho)
	for i, c := range ga.Selected {
		fmt.Printf("  %d. %-26s (%s)\n", i+1, mica.CharName(c), mica.CharCategory(c))
	}

	curve := s.CECurve()
	fmt.Println("\ncorrelation elimination trade-off (Figure 5):")
	for _, k := range []int{47, 24, 17, 12, 8, 4, 1} {
		fmt.Printf("  %2d retained -> rho %.3f\n", k, curve[k-1])
	}
	fmt.Printf("GA at size %d: rho %.3f (beats CE's %.3f)\n",
		len(ga.Selected), ga.Rho, curve[len(ga.Selected)-1])

	p := s.PCA()
	fmt.Printf("\nPCA baseline: %d components for 90%% variance, but all %d characteristics must be measured\n",
		p.ComponentsNeeded(0.9), mica.NumChars)

	// Demonstrate the actual measurement saving: re-profile one
	// benchmark with only the GA subset enabled.
	b, err := mica.BenchmarkByName("SPEC2000/crafty/ref")
	if err != nil {
		log.Fatal(err)
	}
	timeIt := func(subset []bool) time.Duration {
		c := mica.DefaultConfig()
		c.InstBudget = 2_000_000
		c.Subset = subset
		c.SkipHPC = true
		start := time.Now()
		if _, err := mica.Profile(b, c); err != nil {
			log.Fatal(err)
		}
		return time.Since(start)
	}
	subset := make([]bool, mica.NumChars)
	for _, c := range ga.Selected {
		subset[c] = true
	}
	full := timeIt(nil)
	key := timeIt(subset)
	fmt.Printf("\nmeasurement cost on %s (2M instructions):\n", b.Name())
	fmt.Printf("  all 47 characteristics: %v\n", full)
	fmt.Printf("  %d key characteristics:  %v (%.1fX faster; paper reports ~3X)\n",
		len(ga.Selected), key, float64(full)/float64(key))
}
