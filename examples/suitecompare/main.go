// Suitecompare answers the paper's motivating question for one emerging
// suite: is this new workload actually different from SPEC CPU2000, or
// would adding it to a simulation campaign be redundant? It profiles one
// suite plus SPEC, selects the key characteristics with the genetic
// algorithm, clusters, and reports which benchmarks bring genuinely new
// behaviour (Section VI usage).
//
//	go run ./examples/suitecompare BioInfoMark
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"mica"
)

func main() {
	suite := "BioInfoMark"
	if len(os.Args) > 1 {
		suite = os.Args[1]
	}
	candidates := mica.BenchmarksBySuite(suite)
	if len(candidates) == 0 {
		log.Fatalf("unknown suite %q; available: %v", suite, mica.SuiteNames())
	}
	spec := mica.BenchmarksBySuite("SPEC2000")

	cfg := mica.DefaultConfig()
	cfg.InstBudget = 150_000
	cfg.Progress = func(done, total int, name string) {
		fmt.Fprintf(os.Stderr, "\r[%2d/%2d] profiling %-55s", done, total, name)
	}
	results, err := mica.ProfileBenchmarksCtx(context.Background(), append(candidates, spec...), cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintln(os.Stderr)

	s := mica.NewSpace(results)
	ga := s.GASelect(2006)
	fmt.Printf("key characteristics (GA, rho=%.3f):", ga.Rho)
	for _, c := range ga.Selected {
		fmt.Printf(" %s", mica.CharName(c))
	}
	fmt.Println()

	sel := s.Cluster(ga.Selected, 20, 2006)
	assign := sel.Best.Assign
	fmt.Printf("clustered %d benchmarks into %d groups\n\n", s.Len(), sel.Best.K)

	// A candidate benchmark is redundant if it lands in a cluster that
	// already contains a SPEC benchmark, novel otherwise.
	specCluster := map[int][]string{}
	for i := len(candidates); i < s.Len(); i++ {
		specCluster[assign[i]] = append(specCluster[assign[i]], s.Names[i])
	}
	novel, redundant := 0, 0
	for i := range candidates {
		c := assign[i]
		if peers := specCluster[c]; len(peers) > 0 {
			redundant++
			fmt.Printf("REDUNDANT %-46s behaves like %s\n", s.Names[i], peers[0])
		} else {
			novel++
			fmt.Printf("NOVEL     %-46s no SPEC benchmark in its cluster\n", s.Names[i])
		}
	}
	fmt.Printf("\n%s: %d novel, %d redundant with SPEC CPU2000\n", suite, novel, redundant)
	if novel > 0 {
		fmt.Println("-> the suite adds behaviour SPEC does not cover; include the NOVEL benchmarks in design studies")
	} else {
		fmt.Println("-> simulating this suite alongside SPEC would add cost without insight")
	}
}
