// Phases demonstrates the phase-analysis extension: split a benchmark's
// execution into intervals, characterize each with the
// microarchitecture-independent metrics, cluster intervals into phases,
// and select weighted representative intervals — the SimPoint-style
// recipe for simulating a small slice of a program instead of all of it.
//
// It then demonstrates the registry-scale counterpart: several
// benchmarks characterized into an on-disk interval-vector store and
// clustered into one SHARED phase vocabulary read back from the
// shards — the store-backed joint path — including the incremental
// rerun that reuses every unchanged shard.
//
//	go run ./examples/phases [benchmark-name]
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"mica"
)

func main() {
	name := "SPEC2000/twolf/ref"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	b, err := mica.BenchmarkByName(name)
	if err != nil {
		log.Fatal(err)
	}

	phase := mica.PhaseConfig{IntervalLen: 10_000, MaxIntervals: 60, MaxK: 8, Seed: 2006}
	one, err := mica.Run(context.Background(), mica.Request{
		Benchmarks: []mica.Benchmark{b},
		Phases:     &mica.PhasePipelineConfig{Phase: phase},
	})
	if err != nil {
		log.Fatal(err)
	}
	res := one.Phases[0].Result

	fmt.Printf("%s: %d intervals of 10k instructions -> %d phases\n\n",
		name, len(res.Intervals), res.K)

	fmt.Println("phase timeline (one symbol per interval):")
	for _, p := range res.Assign {
		fmt.Printf("%c", 'A'+p)
	}
	fmt.Println()

	fmt.Println("\nrepresentative simulation points:")
	for _, rep := range res.Representatives {
		iv := res.Intervals[rep.Interval]
		v := res.Vector(rep.Interval)
		fmt.Printf("  phase %c: interval %2d (instructions %7d..%7d), weight %.2f, "+
			"loads %.2f, branches %.2f, ILP256 %.2f\n",
			'A'+rep.Phase, rep.Interval, iv.Start, iv.Start+iv.Insts, rep.Weight,
			v[0], v[2], v[9])
	}

	// Sanity: the weighted reconstruction approximates the full trace.
	approx := res.WeightedVector()
	fmt.Printf("\nweighted whole-program estimate: %.3f loads, %.3f branches, %.3f arith\n",
		approx[0], approx[2], approx[3])
	fmt.Printf("reconstruction error vs the full interval aggregate: %.4f mean abs/characteristic\n",
		res.ReconstructionError())
	fmt.Println("simulating only the representatives covers the program's behaviour at a fraction of the cost")

	// Registry-scale joint analysis through the interval-vector store:
	// each benchmark becomes one on-disk shard as soon as it is
	// characterized, and the clustering reads the shards back once
	// into its normalized matrix — the path that scales to the full
	// 122-benchmark registry at paper-scale interval counts.
	fmt.Println("\n--- store-backed joint phase vocabulary ---")
	set := []string{name, "MiBench/sha/large", "SPEC2000/gzip/program"}
	var bs []mica.Benchmark
	seen := map[string]bool{}
	for _, n := range set {
		if seen[n] {
			continue
		}
		seen[n] = true
		sb, err := mica.BenchmarkByName(n)
		if err != nil {
			log.Fatal(err)
		}
		bs = append(bs, sb)
	}
	dir, err := os.MkdirTemp("", "mica-ivstore-demo-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	req := mica.Request{
		Benchmarks: bs,
		Joint:      true,
		Phases:     &mica.PhasePipelineConfig{Phase: phase},
		Store:      mica.StoreOptions{Dir: filepath.Join(dir, "store"), Incremental: true},
	}

	rep, err := mica.Run(context.Background(), req)
	if err != nil {
		log.Fatal(err)
	}
	joint := rep.Joint
	fmt.Printf("%d benchmarks -> %d shards on disk -> %d shared phases over %d intervals\n",
		len(bs), len(rep.Store.Characterized), joint.K, len(joint.Rows))
	for b, bname := range joint.Benchmarks {
		fmt.Printf("  %-28s occupancy:", bname)
		for c := 0; c < joint.K; c++ {
			fmt.Printf(" %c=%.2f", 'A'+c, joint.PhaseShare(b, c))
		}
		fmt.Println()
	}

	// An incremental rerun reuses every unchanged shard: no profiling.
	rep, err = mica.Run(context.Background(), req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("incremental rerun: %d re-characterized, %d shards reused in place\n",
		len(rep.Store.Characterized), len(rep.Store.Reused))
}
