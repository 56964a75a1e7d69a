// Command mica-profile measures the microarchitecture-independent
// characteristics (Table II) and machine-model performance counters of
// one benchmark, or of every benchmark in the registry.
//
// Usage:
//
//	mica-profile -list
//	mica-profile -bench SPEC2000/mcf/ref [-budget 300000]
//	mica-profile -all -json results.json
//	mica-profile -bench SPEC2000/mcf/ref -record mcf.trc
//	mica-profile -trace mcf.trc
//
// -record runs the benchmark's embedded VM while writing its dynamic
// instruction stream to a durable trace file; -trace profiles a
// recorded file instead of an embedded benchmark, producing the
// bit-identical characterization.
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
		benchName = flag.String("bench", "", "benchmark to profile (suite/program/input)")
		all       = flag.Bool("all", false, "profile all 122 benchmarks")
		list      = flag.Bool("list", false, "list benchmarks and exit")
		budget    = flag.Uint64("budget", 300_000, "dynamic instruction budget per benchmark")
		jsonOut   = flag.String("json", "", "write results to a JSON file")
		record    = flag.String("record", "", "record -bench's instruction stream to this trace file instead of profiling")
		tracePath = flag.String("trace", "", "profile a recorded trace file instead of an embedded benchmark")
		statsOut  = flag.String("stats", "", "after the run, dump the observability registry as JSON to this file (\"-\" = stdout)")
		version   = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(obs.Build())
		return
	}
	err := run(*benchName, *all, *list, *budget, *jsonOut, *record, *tracePath)
	if *statsOut != "" {
		if serr := obs.DumpStats(*statsOut); serr != nil && err == nil {
			err = serr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mica-profile:", err)
		os.Exit(1)
	}
}

func run(benchName string, all, list bool, budget uint64, jsonOut, record, tracePath string) error {
	if list {
		t := report.NewTable("name", "kernel", "paper I-cnt (M)")
		for _, b := range mica.Benchmarks() {
			t.AddRow(b.Name(), b.Kernel, b.PaperICountM)
		}
		fmt.Print(t.String())
		return nil
	}

	cfg := mica.DefaultConfig()
	cfg.InstBudget = budget

	if record != "" && tracePath != "" {
		return fmt.Errorf("-record and -trace are mutually exclusive")
	}
	if record != "" {
		if all || benchName == "" {
			return fmt.Errorf("-record needs exactly one -bench <name>")
		}
		b, err := mica.BenchmarkByName(benchName)
		if err != nil {
			return err
		}
		n, err := mica.RecordTrace(b, record, budget)
		if err != nil {
			return err
		}
		fmt.Printf("recorded %d instructions of %s to %s\n", n, b.Name(), record)
		return nil
	}
	if tracePath != "" {
		if all {
			return fmt.Errorf("-trace and -all are mutually exclusive")
		}
		b := mica.TraceBenchmark(benchName, tracePath)
		res, err := mica.Profile(b, cfg)
		if err != nil {
			return err
		}
		printProfile(b, res)
		return nil
	}

	switch {
	case all:
		cfg.Progress = func(done, total int, name string) {
			fmt.Fprintf(os.Stderr, "\r[%3d/%3d] %-60s", done, total, name)
		}
		results, err := mica.ProfileBenchmarksCtx(context.Background(), mica.Benchmarks(), cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr)
		if jsonOut != "" {
			if err := mica.SaveResults(jsonOut, budget, results); err != nil {
				return err
			}
			fmt.Printf("wrote %d results to %s\n", len(results), jsonOut)
			return nil
		}
		fmt.Print(mica.RenderTableII(results))
		return nil

	case benchName != "":
		b, err := mica.BenchmarkByName(benchName)
		if err != nil {
			return err
		}
		res, err := mica.Profile(b, cfg)
		if err != nil {
			return err
		}
		printProfile(b, res)
		return nil

	default:
		return fmt.Errorf("pass -bench <name>, -all, -list or -trace <file>")
	}
}

// printProfile renders one benchmark's characterization tables.
func printProfile(b mica.Benchmark, res mica.ProfileResult) {
	source := "kernel " + b.Kernel
	if b.TracePath != "" {
		source = "trace " + b.TracePath
	}
	fmt.Printf("%s (%s, %d instructions)\n\n", b.Name(), source, res.Insts)
	t := report.NewTable("#", "category", "characteristic", "value")
	for c := 0; c < mica.NumChars; c++ {
		t.AddRow(c+1, mica.CharCategory(c), mica.CharName(c), res.Chars[c])
	}
	fmt.Print(t.String())
	fmt.Println()
	h := report.NewTable("HPC metric", "value")
	for c := 0; c < mica.NumHPCMetrics; c++ {
		h.AddRow(mica.HPCMetricName(c), res.HPC[c])
	}
	fmt.Print(h.String())
}
