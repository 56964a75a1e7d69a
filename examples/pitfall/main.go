// Pitfall reproduces the paper's Section IV case study (Figures 2 and
// 3): SPEC's bzip2 and BioInfoMark's blast look similar through hardware
// performance counters, yet their inherent microarchitecture-independent
// behaviour — working sets, global-history branch predictability, store
// strides — is very different. Relying on counters alone would wrongly
// conclude blast is redundant with SPEC.
//
//	go run ./examples/pitfall
package main

import (
	"context"
	"fmt"
	"log"

	"mica"
)

func main() {
	names := []string{"SPEC2000/bzip2/graphic", "BioInfoMark/blast/protein"}
	var benchmarks []mica.Benchmark
	for _, n := range names {
		b, err := mica.BenchmarkByName(n)
		if err != nil {
			log.Fatal(err)
		}
		benchmarks = append(benchmarks, b)
	}

	cfg := mica.DefaultConfig()
	cfg.InstBudget = 200_000
	results, err := mica.ProfileBenchmarksCtx(context.Background(), benchmarks, cfg)
	if err != nil {
		log.Fatal(err)
	}
	bz, bl := results[0], results[1]

	fmt.Println("=== hardware performance counter view (Figure 2) ===")
	fmt.Printf("%-24s %12s %12s\n", "metric", "bzip2", "blast")
	for c := 0; c < mica.NumHPCCounterMetrics; c++ {
		fmt.Printf("%-24s %12.4f %12.4f\n", mica.HPCMetricName(c), bz.HPC[c], bl.HPC[c])
	}

	fmt.Println("\n=== microarchitecture-independent view (Figure 3) ===")
	fmt.Printf("%-26s %12s %12s\n", "characteristic", "bzip2", "blast")
	for c := 0; c < mica.NumChars; c++ {
		fmt.Printf("%-26s %12.4f %12.4f\n", mica.CharName(c), bz.Chars[c], bl.Chars[c])
	}

	// Quantify the divergence the way the paper does: normalized
	// distances in each space, relative to the whole-registry spread.
	fmt.Println("\nprofiling the full registry to place the pair in both workload spaces...")
	all, err := mica.ProfileBenchmarksCtx(context.Background(), mica.Benchmarks(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	a := mica.Analyze(all, mica.DefaultAnalysisConfig())
	fmt.Print("\n", a.RenderFigure2(), "\n", a.RenderFigure3())
}
