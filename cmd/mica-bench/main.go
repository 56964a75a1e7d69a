// Command mica-bench measures end-to-end profiling throughput (MIPS,
// millions of dynamic instructions per second) for three pipeline
// configurations over a representative benchmark set:
//
//	raw-vm    bare interpretation, no observers
//	mica      the 47-characteristic MICA profiler attached
//	mica+hpc  MICA plus the EV56/EV67 machine-model HPC profilers
//
// With -phases it instead measures the phase-analysis pipeline
// (interval-profiled MIPS, budget/interval intervals per benchmark) in
// two configurations measured in the same run:
//
//	phases-naive   a fresh profiler allocated per interval (the
//	               pre-streaming reference path)
//	phases-pooled  one profiler pooled across all intervals and
//	               benchmarks, Reset between intervals
//
// With -reduced it measures phase-aware reduced profiling against
// exact full profiling on the same interval grid, in two
// configurations measured in the same run:
//
//	phases-full-grid      the exact matched-grid profile: full 47-dim +
//	                      EV56/EV67 HPC characterization on EVERY
//	                      interval
//	phases-reduced        the two-pass reduced pipeline: sampled
//	                      key-characteristic cheap pass, clustering,
//	                      and full characterization only on per-phase
//	                      measured intervals
//	phases-reduced-store  the same reduced pipeline through the
//	                      interval-vector store: the cheap pass lands
//	                      in on-disk shards and the replay gathers
//	                      representatives back through the
//	                      decoded-shard cache
//
// The reduced configs also record their effective speedup over the
// full grid and the worst per-metric relative error of their
// extrapolated whole-run vectors, so the recorded speedup carries its
// quality bound with it; every config additionally records the
// observability registry's delta over its runs (cache accounting,
// pool counters, stage durations) in its metrics map.
//
// With -joint it measures registry-scale joint phase analysis — every
// selected benchmark's intervals clustered once into a shared
// vocabulary — in three configurations measured in the same run:
//
//	joint-inmemory     the flat-matrix path: all interval vectors
//	                   concatenated in memory (AnalyzePhasesJoint)
//	joint-store        the out-of-core path: float32 shards written to
//	                   an interval-vector store, clustering streams
//	                   rows shard-by-shard (AnalyzePhasesJointStoreCtx)
//	joint-store-quant8 the same with 8-bit quantized shards
//
// The store configs also record their store size on disk, the
// registry's cache accounting delta (decodes, peak decoded bytes —
// the clustering sweep streams the same rows many times, so the cache
// turns repeated decodes into hits) and whether the resulting
// vocabulary (K + assignment) is identical to the in-memory one, so
// the recorded throughput carries its fidelity with it. -joint
// defaults to the whole 122-benchmark registry.
//
// With -serve it measures the mica-serve serving layer: a store is
// built over the selected benchmarks, an in-process HTTP daemon
// (internal/serve) opens it, and -clients concurrent clients drive
// -queries similarity lookups each through real HTTP. The recorded
// configuration:
//
//	serve-similarity  aggregate similarity-query throughput in
//	                  queries/s, with server-side p50/p99 latency and
//	                  the client/query mix in the per-bench map
//
// With -cluster it measures the BIC k-sweep (cluster.SelectK) on a
// synthetic phase-interval matrix (-rows x 47, Gaussian blobs) in two
// configurations, reporting million row-assignments per second
// (rows x maxK / wall time):
//
//	selectk-naive               the serial exact Lloyd reference sweep
//	selectk-parallel-minibatch  the parallel sweep with the minibatch
//	                            engine and per-worker scratch reuse
//
// The minibatch config also records its worst-case SSE excess over the
// exact sweep across all swept k, so the recorded speedup carries its
// quality bound with it.
//
// It is the repo's tracked performance harness: every PR that touches the
// hot path re-runs it and commits the result, so the perf trajectory of
// the reproduction is measured rather than assumed.
//
// Usage:
//
//	mica-bench [-budget 2000000] [-runs 3] [-bench name,name,...] [-json BENCH_profile.json]
//	mica-bench -record [-budget 2000000] [-json BENCH_profile.json]
//	mica-bench -replay [-budget 2000000] [-json BENCH_profile.json]
//	mica-bench -phases [-interval 1000] [-json BENCH_phases.json]
//	mica-bench -cluster [-rows 100000] [-maxk 10] [-json BENCH_phases.json]
//	mica-bench -joint [-budget 400000] [-interval 400] [-maxk 3] [-json BENCH_phases.json]
//	mica-bench -serve [-clients 16] [-queries 32] [-json BENCH_phases.json]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"mica"
	"mica/internal/cluster"
	micachar "mica/internal/mica"
	"mica/internal/obs"
	"mica/internal/phases"
	"path/filepath"

	"mica/internal/report"
	"mica/internal/serve"
	"mica/internal/vm"
)

// defaultSet spans the suites and kernel families so the harness sees
// branchy, pointer-chasing, FP and streaming behaviour in one run.
var defaultSet = []string{
	"SPEC2000/gzip/program",   // lz77: hash chains, mixed loads/stores
	"SPEC2000/crafty/ref",     // interp: branchy, hard to predict
	"SPEC2000/mcf/ref",        // pointerchase: large data working set
	"MiBench/sha/large",       // sha: ALU-dense, tight loops
	"MiBench/FFT/fft-large",   // fft: floating point
	"MediaBench/mpeg2/encode", // motionest: 2D locality
}

// History is the JSON document written by -json: one entry per recorded
// run, so the committed BENCH_profile.json accumulates the repo's perf
// trajectory PR over PR.
type History struct {
	History []Result `json:"history"`
}

// Result is one recorded measurement.
type Result struct {
	// Label names the measurement ("seed-baseline", "pr1", ...).
	Label string `json:"label"`
	// Timestamp is when the measurement ran (RFC 3339).
	Timestamp string `json:"timestamp"`
	// GoVersion and GOMAXPROCS describe the environment.
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Budget is the dynamic instruction budget per benchmark per run;
	// absent for -cluster measurements, which run no instructions.
	Budget uint64 `json:"budget,omitempty"`
	// Interval is the phase interval length in instructions; present
	// only for -phases measurements.
	Interval uint64 `json:"interval,omitempty"`
	// Rows and MaxK describe the synthetic matrix and sweep width
	// (-cluster) or the BIC sweep width (-reduced).
	Rows int `json:"rows,omitempty"`
	MaxK int `json:"max_k,omitempty"`
	// Runs is the number of repetitions; the best run is reported.
	Runs int `json:"runs"`
	// Benchmarks lists the measured benchmark names.
	Benchmarks []string `json:"benchmarks"`
	// Configs holds per-configuration aggregate throughput.
	Configs []ConfigResult `json:"configs"`
}

// ConfigResult is one pipeline configuration's throughput.
type ConfigResult struct {
	Name string `json:"name"`
	// MIPS is the aggregate throughput: total instructions across the
	// benchmark set divided by total wall time, in millions per second.
	// For -cluster measurements the same field carries million
	// row-assignments per second, marked by Unit.
	MIPS float64 `json:"mips"`
	// Unit names the throughput unit when it is not plain MIPS
	// ("Mrows/s" for -cluster entries), so history readers never
	// compare incomparable quantities silently.
	Unit string `json:"unit,omitempty"`
	// PerBench is the per-benchmark MIPS breakdown.
	PerBench map[string]float64 `json:"per_bench"`
	// Metrics is the observability registry's delta over this
	// configuration's runs (flattened counters and histogram
	// counts/sums, mica_<layer>_<name> keys): cache decodes, pool
	// items, stage durations — whatever the run actually touched. It
	// replaces ad-hoc per-config fields, so new instrumentation lands
	// in the history without touching this harness.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// snapMetrics captures the observability registry's current state and
// returns a closure yielding the flattened delta since — the Metrics
// record a configuration carries into the history file.
func snapMetrics() func() map[string]float64 {
	base := obs.Default().Snapshot()
	return func() map[string]float64 { return obs.Delta(base, obs.Default().Snapshot()) }
}

func main() {
	var (
		budget     = flag.Uint64("budget", 2_000_000, "dynamic instruction budget per benchmark")
		runs       = flag.Int("runs", 3, "repetitions per configuration (best run reported)")
		benches    = flag.String("bench", "", "comma-separated benchmark names (default: representative set)")
		jsonOut    = flag.String("json", "", "append results to a JSON history file")
		label      = flag.String("label", "dev", "label recorded with the measurement")
		phaseRun   = flag.Bool("phases", false, "measure the phase-analysis pipeline (naive vs pooled) instead of the profiler configs")
		interval   = flag.Uint64("interval", 1_000, "phase interval length in instructions (with -phases or -reduced)")
		reducedRun = flag.Bool("reduced", false, "measure phase-aware reduced profiling vs exact full profiling on the same interval grid")
		jointRun   = flag.Bool("joint", false, "measure registry-scale joint phase analysis (in-memory vs store-backed vs quantized store)")
		serveRun   = flag.Bool("serve", false, "measure the serving layer's similarity-query throughput over a live HTTP daemon")
		clients    = flag.Int("clients", 16, "concurrent clients (with -serve)")
		queries    = flag.Int("queries", 32, "similarity queries per client (with -serve)")
		recordRun  = flag.Bool("record", false, "measure trace recording overhead (raw VM vs VM + trace writer)")
		replayRun  = flag.Bool("replay", false, "measure trace replay throughput (live VM and live characterization vs recorded-trace replay)")
		clusterRun = flag.Bool("cluster", false, "measure the SelectK BIC sweep (naive vs parallel-minibatch) instead of the profiler configs")
		rows       = flag.Int("rows", 100_000, "synthetic matrix rows (with -cluster)")
		maxK       = flag.Int("maxk", 10, "BIC sweep width (with -cluster or -reduced)")
		seed       = flag.Int64("seed", 2006, "synthetic data and k-means seed (with -cluster or -reduced)")
		statsOut   = flag.String("stats", "", "after the run, dump the observability registry as JSON to this file (\"-\" = stdout)")
		version    = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(obs.Build())
		return
	}

	// SIGINT/SIGTERM cancels the measurement context: the current
	// pipeline drains and the harness exits without appending a
	// half-measured entry to the tracked history.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	switch {
	case *recordRun || *replayRun:
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "phases", "reduced", "cluster", "joint", "serve", "rows":
				err = fmt.Errorf("-%s does not apply to -record/-replay (use -budget/-runs/-bench)", f.Name)
			}
		})
		if err == nil && *recordRun && *replayRun {
			err = fmt.Errorf("-record and -replay are separate measurements; pass one")
		}
		if err == nil {
			err = runTrace(ctx, *budget, *runs, *benches, *jsonOut, *label, *replayRun)
		}
	case *serveRun:
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "phases", "reduced", "cluster", "joint", "rows":
				err = fmt.Errorf("-%s does not apply to -serve (use -budget/-interval/-maxk/-seed/-bench/-clients/-queries)", f.Name)
			}
		})
		if err == nil {
			err = runServe(ctx, *budget, *interval, *maxK, *runs, *benches, *jsonOut, *label, *seed, *clients, *queries)
		}
	case *jointRun:
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "phases", "reduced", "cluster", "rows":
				err = fmt.Errorf("-%s does not apply to -joint (use -budget/-interval/-maxk/-seed/-bench)", f.Name)
			}
		})
		if err == nil {
			err = runJoint(ctx, *budget, *interval, *maxK, *runs, *benches, *jsonOut, *label, *seed)
		}
	case *clusterRun:
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "phases", "reduced", "bench", "budget", "interval":
				err = fmt.Errorf("-%s does not apply to -cluster (use -rows/-maxk/-seed)", f.Name)
			}
		})
		if err == nil {
			err = runCluster(ctx, *rows, *maxK, *runs, *jsonOut, *label, *seed)
		}
	case *reducedRun:
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "phases", "rows":
				err = fmt.Errorf("-%s does not apply to -reduced (use -budget/-interval/-maxk/-seed)", f.Name)
			}
		})
		if err == nil {
			err = runReduced(ctx, *budget, *interval, *maxK, *runs, *benches, *jsonOut, *label, *seed)
		}
	default:
		err = run(ctx, *budget, *runs, *benches, *jsonOut, *label, *phaseRun, *interval)
	}
	if *statsOut != "" {
		if serr := obs.DumpStats(*statsOut); serr != nil && err == nil {
			err = serr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mica-bench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, budget uint64, runs int, benches, jsonOut, label string, phaseRun bool, interval uint64) error {
	if runs < 1 {
		runs = 1
	}
	names, set, err := resolveBenchmarks(benches)
	if err != nil {
		return err
	}

	res := Result{
		Label:      label,
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Budget:     budget,
		Runs:       runs,
		Benchmarks: names,
	}

	var configs []benchConfig
	if phaseRun {
		if interval == 0 || interval > budget {
			return fmt.Errorf("phase interval %d out of range for budget %d", interval, budget)
		}
		res.Interval = interval
		pcfg := phases.Config{
			IntervalLen:  interval,
			MaxIntervals: int(budget / interval),
			MaxK:         4,
			Seed:         2006,
		}
		// The pooled configuration shares ONE profiler across every
		// benchmark and repetition — exactly what an AnalyzePhasesAll
		// worker does over its shard.
		pooled := micachar.NewProfiler(pcfg.Options)
		configs = []benchConfig{
			{"phases-naive", func(b mica.Benchmark) (uint64, time.Duration, error) {
				start := time.Now()
				m, err := b.Instantiate()
				if err != nil {
					return 0, 0, err
				}
				res, err := phases.AnalyzeUnpooled(m, pcfg)
				if err != nil {
					return 0, 0, err
				}
				return res.TotalInsts(), time.Since(start), nil
			}},
			{"phases-pooled", func(b mica.Benchmark) (uint64, time.Duration, error) {
				start := time.Now()
				m, err := b.Instantiate()
				if err != nil {
					return 0, 0, err
				}
				res, err := phases.AnalyzeWith(m, pooled, pcfg)
				if err != nil {
					return 0, 0, err
				}
				return res.TotalInsts(), time.Since(start), nil
			}},
		}
	} else {
		configs = profilerConfigs(budget)
	}

	t := report.NewTable("config", "MIPS", "insts", "time")
	for _, c := range configs {
		best := ConfigResult{Name: c.name, PerBench: make(map[string]float64)}
		var bestInsts uint64
		var bestTime time.Duration
		delta := snapMetrics()
		for r := 0; r < runs; r++ {
			var totalInsts uint64
			var totalTime time.Duration
			perBench := make(map[string]float64)
			for i, b := range set {
				// Measurement granularity is one benchmark: a signal stops
				// the harness at the next benchmark boundary, so no
				// half-measured entry reaches the tracked history.
				if err := ctx.Err(); err != nil {
					return err
				}
				n, d, err := c.measure(b)
				if err != nil {
					return fmt.Errorf("%s on %s: %w", c.name, names[i], err)
				}
				totalInsts += n
				totalTime += d
				perBench[names[i]] = mips(n, d)
			}
			if m := mips(totalInsts, totalTime); m > best.MIPS {
				best.MIPS = m
				best.PerBench = perBench
				bestInsts, bestTime = totalInsts, totalTime
			}
		}
		best.Metrics = delta()
		res.Configs = append(res.Configs, best)
		t.AddRow(c.name, fmt.Sprintf("%.2f", best.MIPS), bestInsts,
			bestTime.Round(time.Millisecond))
	}
	fmt.Print(t.String())

	return appendHistory(jsonOut, res)
}

// appendHistory appends one measurement to the JSON history file (a
// no-op when no file is configured).
func appendHistory(jsonOut string, res Result) error {
	if jsonOut == "" {
		return nil
	}
	var hist History
	prev, err := os.ReadFile(jsonOut)
	switch {
	case err == nil:
		if err := json.Unmarshal(prev, &hist); err != nil {
			return fmt.Errorf("existing %s is not a history file: %w", jsonOut, err)
		}
	case !os.IsNotExist(err):
		// Never clobber the tracked perf trajectory because of a
		// transient read failure.
		return err
	}
	hist.History = append(hist.History, res)
	data, err := json.MarshalIndent(hist, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("appended %q to %s (%d entries)\n", res.Label, jsonOut, len(hist.History))
	return nil
}

// runCluster measures the SelectK BIC sweep: the serial exact
// reference (SelectKNaive) against the parallel minibatch sweep, on
// the same synthetic matrix with the same seed. Throughput is million
// row-assignments per second (rows x maxK / wall time).
func runCluster(ctx context.Context, rows, maxK, runs int, jsonOut, label string, seed int64) error {
	if runs < 1 {
		runs = 1
	}
	if rows < 1 || maxK < 1 {
		return fmt.Errorf("cluster sweep needs positive -rows and -maxk (got %d, %d)", rows, maxK)
	}
	// The fixture lives in internal/cluster (SyntheticPhaseBlobs) so the
	// tracked harness and BenchmarkClusterSweep measure the same recipe.
	const centers = 12
	m := cluster.SyntheticPhaseBlobs(rows, centers, seed)

	res := Result{
		Label:      label,
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Runs:       runs,
		Rows:       rows,
		MaxK:       maxK,
		Benchmarks: []string{fmt.Sprintf("synthetic-blobs-%dx47-c%d", rows, centers)},
	}

	measure := func(sweep func() cluster.Selection) (cluster.Selection, time.Duration, error) {
		var sel cluster.Selection
		best := time.Duration(0)
		for r := 0; r < runs; r++ {
			if err := ctx.Err(); err != nil {
				return sel, best, err
			}
			start := time.Now()
			s := sweep()
			if d := time.Since(start); best == 0 || d < best {
				best, sel = d, s
			}
		}
		return sel, best, nil
	}

	naiveSel, naiveT, err := measure(func() cluster.Selection {
		return cluster.SelectKNaive(m, maxK, 0.9, seed)
	})
	if err != nil {
		return err
	}
	miniSel, miniT, err := measure(func() cluster.Selection {
		return cluster.SelectKOpt(m, maxK, 0.9, seed, cluster.SweepOptions{Engine: cluster.EngineMiniBatch})
	})
	if err != nil {
		return err
	}

	// Worst-case minibatch SSE excess over exact Lloyd across the sweep
	// (k=1 SSE is seeding-independent, so the comparison starts there
	// too). An exact SSE of 0 (fully separable data) gets a tiny
	// denominator instead of being skipped: a minibatch regression at
	// that k then records as an enormous excess rather than as perfect
	// quality.
	sseExcess := 0.0
	for i := range naiveSel.SSEs {
		den := naiveSel.SSEs[i]
		if den <= 0 {
			den = 1e-12
		}
		if ex := miniSel.SSEs[i]/den - 1; ex > sseExcess {
			sseExcess = ex
		}
	}
	speedup := naiveT.Seconds() / miniT.Seconds()

	mrs := func(d time.Duration) float64 {
		return float64(rows) * float64(maxK) / d.Seconds() / 1e6
	}
	res.Configs = []ConfigResult{
		{Name: "selectk-naive", MIPS: mrs(naiveT), Unit: "Mrows/s", PerBench: map[string]float64{
			"seconds":    naiveT.Seconds(),
			"selected_k": float64(naiveSel.Best.K),
		}},
		{Name: "selectk-parallel-minibatch", MIPS: mrs(miniT), Unit: "Mrows/s", PerBench: map[string]float64{
			"seconds":          miniT.Seconds(),
			"selected_k":       float64(miniSel.Best.K),
			"speedup_vs_naive": speedup,
			"sse_excess_max":   sseExcess,
		}},
	}

	t := report.NewTable("config", "Mrows/s", "time", "K", "notes")
	t.AddRow("selectk-naive", fmt.Sprintf("%.2f", mrs(naiveT)),
		naiveT.Round(time.Millisecond), naiveSel.Best.K, "")
	t.AddRow("selectk-parallel-minibatch", fmt.Sprintf("%.2f", mrs(miniT)),
		miniT.Round(time.Millisecond), miniSel.Best.K,
		fmt.Sprintf("%.2fx faster, SSE +%.2f%% max", speedup, sseExcess*100))
	fmt.Print(t.String())

	return appendHistory(jsonOut, res)
}

// runReduced measures phase-aware reduced profiling: the exact
// matched-grid full characterization (every interval paying the full
// 47-dim + HPC models) against the two-pass reduced pipeline, on the
// same benchmarks, grid and seed. Both are reported as effective MIPS
// (trace instructions per second of wall time); the reduced entry also
// records its speedup and the worst per-metric relative error of its
// extrapolations — the tracked evidence that the speedup does not cost
// accuracy.
func runReduced(ctx context.Context, budget, interval uint64, maxK, runs int, benches, jsonOut, label string, seed int64) error {
	if runs < 1 {
		runs = 1
	}
	if interval == 0 || interval > budget {
		return fmt.Errorf("reduced interval %d out of range for budget %d", interval, budget)
	}
	names, set, err := resolveBenchmarks(benches)
	if err != nil {
		return err
	}
	cfg := mica.ReducedConfig{Phase: mica.PhaseConfig{
		IntervalLen:  interval,
		MaxIntervals: int(budget / interval),
		MaxK:         maxK,
		Seed:         seed,
	}}

	res := Result{
		Label:      label,
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Budget:     budget,
		Interval:   interval,
		MaxK:       maxK,
		Runs:       runs,
		Benchmarks: names,
	}

	full := ConfigResult{Name: "phases-full-grid", PerBench: make(map[string]float64)}
	red := ConfigResult{Name: "phases-reduced", PerBench: make(map[string]float64)}
	var fullTime, redTime time.Duration
	var totalInsts uint64
	maxErr := 0.0
	exacts := make([]*phases.ExactProfile, len(set))
	for i, b := range set {
		var ex *phases.ExactProfile
		var rr *mica.ReducedResult
		var bestFull, bestRed time.Duration
		for r := 0; r < runs; r++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			start := time.Now()
			e, err := mica.ProfileExact(b, cfg)
			if err != nil {
				return fmt.Errorf("full grid on %s: %w", names[i], err)
			}
			if d := time.Since(start); bestFull == 0 || d < bestFull {
				bestFull, ex = d, e
			}
			start = time.Now()
			rd, err := mica.AnalyzeReduced(b, cfg)
			if err != nil {
				return fmt.Errorf("reduced on %s: %w", names[i], err)
			}
			if d := time.Since(start); bestRed == 0 || d < bestRed {
				bestRed, rr = d, rd
			}
		}
		insts := ex.TotalInsts()
		totalInsts += insts
		fullTime += bestFull
		redTime += bestRed
		full.PerBench[names[i]] = mips(insts, bestFull)
		red.PerBench[names[i]] = mips(insts, bestRed)
		if e := rr.MaxRelativeError(ex); e > maxErr {
			maxErr = e
		}
		exacts[i] = ex
	}
	full.MIPS = mips(totalInsts, fullTime)
	red.MIPS = mips(totalInsts, redTime)
	speedup := fullTime.Seconds() / redTime.Seconds()
	red.PerBench["speedup_vs_full"] = speedup
	red.PerBench["max_rel_err"] = maxErr
	res.Configs = []ConfigResult{full, red}

	// Store-backed reduced: the same pipeline with its cheap pass in a
	// fresh interval-vector store and the replay reading shards back
	// through the decoded-shard cache. The store APIs are set-level, so
	// this configuration is timed end to end over the whole set against
	// the summed full-grid reference.
	stored := ConfigResult{Name: "phases-reduced-store", PerBench: make(map[string]float64)}
	var storeTime time.Duration
	var storeResults []mica.BenchmarkReduced
	var storeStats *mica.StoreBuildStats
	rpcfg := mica.ReducedPipelineConfig{Reduced: cfg}
	storeDelta := snapMetrics()
	for r := 0; r < runs; r++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		dir, err := os.MkdirTemp("", "mica-reduced-store-*")
		if err != nil {
			return err
		}
		start := time.Now()
		rs, stats, err := mica.AnalyzeReducedStoreCtx(ctx, set, rpcfg, mica.StoreOptions{Dir: dir})
		if err != nil {
			os.RemoveAll(dir)
			return fmt.Errorf("reduced store: %w", err)
		}
		if d := time.Since(start); storeTime == 0 || d < storeTime {
			storeTime, storeResults, storeStats = d, rs, stats
		}
		os.RemoveAll(dir)
	}
	storeMaxErr := 0.0
	for i, rr := range storeResults {
		if e := rr.Result.MaxRelativeError(exacts[i]); e > storeMaxErr {
			storeMaxErr = e
		}
	}
	stored.MIPS = mips(totalInsts, storeTime)
	storeSpeedup := fullTime.Seconds() / storeTime.Seconds()
	stored.PerBench["seconds"] = storeTime.Seconds()
	stored.PerBench["speedup_vs_full"] = storeSpeedup
	stored.PerBench["max_rel_err"] = storeMaxErr
	// Cache accounting (decodes, peak bytes) and stage durations land
	// in Metrics via the registry delta instead of hand-picked keys.
	stored.Metrics = storeDelta()
	res.Configs = append(res.Configs, stored)

	t := report.NewTable("config", "MIPS", "time", "notes")
	t.AddRow("phases-full-grid", fmt.Sprintf("%.2f", full.MIPS), fullTime.Round(time.Millisecond), "")
	t.AddRow("phases-reduced", fmt.Sprintf("%.2f", red.MIPS), redTime.Round(time.Millisecond),
		fmt.Sprintf("%.2fx faster, max rel err %.2f%%", speedup, maxErr*100))
	t.AddRow("phases-reduced-store", fmt.Sprintf("%.2f", stored.MIPS), storeTime.Round(time.Millisecond),
		fmt.Sprintf("%.2fx faster, max rel err %.2f%%, %d decodes, peak %.1f KB cached",
			storeSpeedup, storeMaxErr*100, storeStats.Cache.Decodes, float64(storeStats.Cache.PeakBytes)/1e3))
	fmt.Print(t.String())

	return appendHistory(jsonOut, res)
}

// runJoint measures registry-scale joint phase analysis: the
// in-memory flat-matrix path against the store-backed streaming path
// (float32 and quant8 encodings), on the same benchmarks, grid and
// seed. Throughput is effective MIPS (profiled trace instructions per
// second of end-to-end wall time, characterization + clustering). The
// store entries record their on-disk size and whether their
// vocabulary (K + assignment) matches the in-memory one bit for bit,
// so the recorded numbers carry their fidelity with them. -bench
// defaults to the whole registry.
func runJoint(ctx context.Context, budget, interval uint64, maxK, runs int, benches, jsonOut, label string, seed int64) error {
	if runs < 1 {
		runs = 1
	}
	if interval == 0 || interval > budget {
		return fmt.Errorf("joint interval %d out of range for budget %d", interval, budget)
	}
	set := mica.Benchmarks()
	names := []string{fmt.Sprintf("registry-%d", len(set))}
	if benches != "" {
		var err error
		if names, set, err = resolveBenchmarks(benches); err != nil {
			return err
		}
	}
	pcfg := mica.PhasePipelineConfig{Phase: mica.PhaseConfig{
		IntervalLen:  interval,
		MaxIntervals: int(budget / interval),
		MaxK:         maxK,
		Seed:         seed,
	}}

	res := Result{
		Label:      label,
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Budget:     budget,
		Interval:   interval,
		MaxK:       maxK,
		Runs:       runs,
		Benchmarks: names,
	}

	// In-memory reference.
	var ref *mica.PhaseJointResult
	var refTime time.Duration
	inmemDelta := snapMetrics()
	for r := 0; r < runs; r++ {
		start := time.Now()
		j, err := mica.AnalyzePhasesJointCtx(ctx, set, pcfg)
		if err != nil {
			return fmt.Errorf("joint in-memory: %w", err)
		}
		if d := time.Since(start); refTime == 0 || d < refTime {
			refTime, ref = d, j
		}
	}
	totalInsts := ref.TotalInsts()
	inmem := ConfigResult{Name: "joint-inmemory", MIPS: mips(totalInsts, refTime), PerBench: map[string]float64{
		"seconds":    refTime.Seconds(),
		"rows":       float64(len(ref.Rows)),
		"selected_k": float64(ref.K),
	}, Metrics: inmemDelta()}
	res.Configs = []ConfigResult{inmem}

	t := report.NewTable("config", "MIPS", "time", "K", "notes")
	t.AddRow("joint-inmemory", fmt.Sprintf("%.2f", inmem.MIPS), refTime.Round(time.Millisecond), ref.K, "")

	for _, sc := range []struct {
		name     string
		quantize bool
	}{{"joint-store", false}, {"joint-store-quant8", true}} {
		var best *mica.PhaseJointResult
		var bestStats *mica.StoreBuildStats
		var bestTime time.Duration
		var storeBytes int64
		delta := snapMetrics()
		for r := 0; r < runs; r++ {
			dir, err := os.MkdirTemp("", "mica-joint-store-*")
			if err != nil {
				return err
			}
			start := time.Now()
			j, stats, err := mica.AnalyzePhasesJointStoreCtx(ctx, set, pcfg, mica.StoreOptions{Dir: dir, Quantize: sc.quantize})
			if err != nil {
				os.RemoveAll(dir)
				return fmt.Errorf("%s: %w", sc.name, err)
			}
			if d := time.Since(start); bestTime == 0 || d < bestTime {
				bestTime, best, bestStats = d, j, stats
				storeBytes = dirSize(dir)
			}
			os.RemoveAll(dir)
		}
		identical := 0.0
		if best.K == ref.K && slices.Equal(best.Assign, ref.Assign) {
			identical = 1
		}
		cr := ConfigResult{Name: sc.name, MIPS: mips(totalInsts, bestTime), PerBench: map[string]float64{
			"seconds":         bestTime.Seconds(),
			"rows":            float64(len(best.Rows)),
			"selected_k":      float64(best.K),
			"store_bytes":     float64(storeBytes),
			"vocab_identical": identical,
		}, Metrics: delta()}
		res.Configs = append(res.Configs, cr)
		note := fmt.Sprintf("%.2fx of in-memory, %.1f MB store, %d decodes",
			bestTime.Seconds()/refTime.Seconds(), float64(storeBytes)/1e6, bestStats.Cache.Decodes)
		if identical == 1 {
			note += ", vocab identical"
		} else {
			note += fmt.Sprintf(", vocab differs (K %d vs %d)", best.K, ref.K)
		}
		t.AddRow(sc.name, fmt.Sprintf("%.2f", cr.MIPS), bestTime.Round(time.Millisecond), best.K, note)
	}
	fmt.Print(t.String())

	return appendHistory(jsonOut, res)
}

// runServe measures the serving layer: it builds a store over the
// selected benchmarks (default: the whole registry), opens it behind
// an in-process mica-serve HTTP daemon, and drives clients x queries
// concurrent similarity lookups through real HTTP. Throughput is
// queries per second of wall time (best of runs); the recorded entry
// carries the server-side p50/p99 latency from /api/v1/stats so the
// tracked history sees tail behaviour, not just the mean.
func runServe(ctx context.Context, budget, interval uint64, maxK, runs int, benches, jsonOut, label string, seed int64, clients, queries int) error {
	if runs < 1 {
		runs = 1
	}
	if clients < 1 || queries < 1 {
		return fmt.Errorf("serve measurement needs positive -clients and -queries (got %d, %d)", clients, queries)
	}
	if interval == 0 || interval > budget {
		return fmt.Errorf("serve interval %d out of range for budget %d", interval, budget)
	}
	set := mica.Benchmarks()
	names := []string{fmt.Sprintf("registry-%d", len(set))}
	if benches != "" {
		var err error
		if names, set, err = resolveBenchmarks(benches); err != nil {
			return err
		}
	}
	phase := mica.PhaseConfig{
		IntervalLen:  interval,
		MaxIntervals: int(budget / interval),
		MaxK:         maxK,
		Seed:         seed,
	}

	dir, err := os.MkdirTemp("", "mica-serve-bench-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	buildStart := time.Now()
	st, _, err := mica.CharacterizeToStoreCtx(ctx, set,
		mica.PhasePipelineConfig{Phase: phase}, mica.StoreOptions{Dir: dir})
	if err != nil {
		return fmt.Errorf("serve store build: %w", err)
	}
	defer st.Close()
	buildTime := time.Since(buildStart)

	srv, err := serve.New(st, serve.Config{Phase: phase})
	if err != nil {
		return err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()

	benchNames := make([]string, len(set))
	for i, b := range set {
		benchNames[i] = b.Name()
	}

	var best time.Duration
	for r := 0; r < runs; r++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		start := time.Now()
		var wg sync.WaitGroup
		errCh := make(chan error, clients)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for q := 0; q < queries; q++ {
					bench := benchNames[(c*queries+q*31)%len(benchNames)]
					k := 1 + (c+q)%8
					resp, err := http.Get(fmt.Sprintf("%s/api/v1/similar?bench=%s&k=%d", base, bench, k))
					if err != nil {
						errCh <- err
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						errCh <- fmt.Errorf("similar %s k=%d: status %d", bench, k, resp.StatusCode)
						return
					}
				}
			}(c)
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			return err
		}
		if d := time.Since(start); best == 0 || d < best {
			best = d
		}
	}
	total := clients * queries
	qps := float64(total) / best.Seconds()

	// Server-side latency percentiles over every request the daemon saw.
	resp, err := http.Get(base + "/api/v1/stats")
	if err != nil {
		return err
	}
	var sr struct {
		Endpoints map[string]serve.EndpointStats `json:"endpoints"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	if err != nil {
		return err
	}
	sim := sr.Endpoints["similar"]
	if sim.Errors != 0 {
		return fmt.Errorf("similar endpoint reported %d errors under the measurement load", sim.Errors)
	}

	res := Result{
		Label:      label,
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Budget:     budget,
		Interval:   interval,
		MaxK:       maxK,
		Runs:       runs,
		Benchmarks: names,
		Configs: []ConfigResult{{
			Name: "serve-similarity",
			MIPS: qps,
			Unit: "queries/s",
			PerBench: map[string]float64{
				"seconds":       best.Seconds(),
				"clients":       float64(clients),
				"queries":       float64(total),
				"p50_ms":        sim.P50Ms,
				"p99_ms":        sim.P99Ms,
				"mean_ms":       sim.MeanMs,
				"build_seconds": buildTime.Seconds(),
			},
		}},
	}

	t := report.NewTable("config", "queries/s", "time", "notes")
	t.AddRow("serve-similarity", fmt.Sprintf("%.0f", qps), best.Round(time.Millisecond),
		fmt.Sprintf("%d clients x %d queries, p50 %.2fms, p99 %.2fms", clients, queries, sim.P50Ms, sim.P99Ms))
	fmt.Print(t.String())

	return appendHistory(jsonOut, res)
}

// runTrace measures the trace layer against the live VM on the same
// benchmarks and budget. With replay=false it records the recording
// tax: the raw VM against the VM with a trace.Writer attached (plus
// the on-disk bytes per instruction of the resulting files). With
// replay=true it pre-records every benchmark outside the timed region
// and measures replay throughput: the bare decode loop and the
// replayed 47-characteristic profile against their live-VM
// equivalents — the replay-raw entry records its speedup over live
// characterization, the number the trace format exists to deliver.
func runTrace(ctx context.Context, budget uint64, runs int, benches, jsonOut, label string, replay bool) error {
	if runs < 1 {
		runs = 1
	}
	names, set, err := resolveBenchmarks(benches)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "mica-trace-bench-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	paths := make(map[string]string, len(set))
	for i, b := range set {
		paths[b.Name()] = filepath.Join(dir, fmt.Sprintf("b%d.trc", i))
	}

	res := Result{
		Label:      label,
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Budget:     budget,
		Runs:       runs,
		Benchmarks: names,
	}

	micaCfg := mica.DefaultConfig()
	micaCfg.InstBudget = budget
	micaCfg.SkipHPC = true
	liveRaw := benchConfig{"live-vm-raw", func(b mica.Benchmark) (uint64, time.Duration, error) {
		start := time.Now()
		m, err := b.Instantiate()
		if err != nil {
			return 0, 0, err
		}
		n, err := m.Run(budget, nil)
		if err != nil && err != vm.ErrBudget {
			return 0, 0, err
		}
		return n, time.Since(start), nil
	}}

	var configs []benchConfig
	if replay {
		for _, b := range set {
			if _, err := mica.RecordTrace(b, paths[b.Name()], budget); err != nil {
				return fmt.Errorf("pre-recording %s: %w", b.Name(), err)
			}
		}
		configs = []benchConfig{
			liveRaw,
			{"live-vm-mica", func(b mica.Benchmark) (uint64, time.Duration, error) {
				start := time.Now()
				pr, err := mica.Profile(b, micaCfg)
				if err != nil {
					return 0, 0, err
				}
				return pr.Insts, time.Since(start), nil
			}},
			{"replay-raw", func(b mica.Benchmark) (uint64, time.Duration, error) {
				start := time.Now()
				src, err := mica.TraceBenchmark(b.Name(), paths[b.Name()]).Source()
				if err != nil {
					return 0, 0, err
				}
				n, err := src.Run(0, nil)
				if err != nil {
					return 0, 0, err
				}
				return n, time.Since(start), nil
			}},
			{"replay-mica", func(b mica.Benchmark) (uint64, time.Duration, error) {
				start := time.Now()
				pr, err := mica.Profile(mica.TraceBenchmark(b.Name(), paths[b.Name()]), micaCfg)
				if err != nil {
					return 0, 0, err
				}
				return pr.Insts, time.Since(start), nil
			}},
		}
	} else {
		configs = []benchConfig{
			liveRaw,
			{"record-trace", func(b mica.Benchmark) (uint64, time.Duration, error) {
				start := time.Now()
				n, err := mica.RecordTrace(b, paths[b.Name()], budget)
				return n, time.Since(start), err
			}},
		}
	}

	t := report.NewTable("config", "MIPS", "insts", "time")
	for _, c := range configs {
		best := ConfigResult{Name: c.name, PerBench: make(map[string]float64)}
		var bestInsts uint64
		var bestTime time.Duration
		delta := snapMetrics()
		for r := 0; r < runs; r++ {
			var totalInsts uint64
			var totalTime time.Duration
			perBench := make(map[string]float64)
			for i, b := range set {
				if err := ctx.Err(); err != nil {
					return err
				}
				n, d, err := c.measure(b)
				if err != nil {
					return fmt.Errorf("%s on %s: %w", c.name, names[i], err)
				}
				totalInsts += n
				totalTime += d
				perBench[names[i]] = mips(n, d)
			}
			if m := mips(totalInsts, totalTime); m > best.MIPS {
				best.MIPS = m
				best.PerBench = perBench
				bestInsts, bestTime = totalInsts, totalTime
			}
		}
		best.Metrics = delta()
		res.Configs = append(res.Configs, best)
		t.AddRow(c.name, fmt.Sprintf("%.2f", best.MIPS), bestInsts,
			bestTime.Round(time.Millisecond))
	}

	if replay {
		// The headline ratios: how much faster replay is than running
		// (and characterizing on) the live VM.
		liveMica := res.Configs[1].MIPS
		for i := 2; i < len(res.Configs); i++ {
			if liveMica > 0 {
				res.Configs[i].PerBench["speedup_vs_live_mica"] = res.Configs[i].MIPS / liveMica
			}
		}
	} else {
		// The recording tax and the on-disk cost of the trace files.
		var traceBytes int64
		for _, p := range paths {
			if fi, err := os.Stat(p); err == nil {
				traceBytes += fi.Size()
			}
		}
		if res.Configs[0].MIPS > 0 {
			res.Configs[1].PerBench["overhead_vs_raw"] = res.Configs[0].MIPS / res.Configs[1].MIPS
		}
		totalInsts := budget * uint64(len(set))
		if totalInsts > 0 {
			res.Configs[1].PerBench["bytes_per_inst"] = float64(traceBytes) / float64(totalInsts)
		}
	}
	fmt.Print(t.String())

	return appendHistory(jsonOut, res)
}

// dirSize sums the file sizes under dir (non-recursive: a store is a
// flat directory).
func dirSize(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range entries {
		if fi, err := e.Info(); err == nil && fi.Mode().IsRegular() {
			total += fi.Size()
		}
	}
	return total
}

// resolveBenchmarks turns a comma-separated -bench list (or the
// default representative set) into registry benchmarks.
func resolveBenchmarks(benches string) ([]string, []mica.Benchmark, error) {
	names := defaultSet
	if benches != "" {
		names = strings.Split(benches, ",")
	}
	set := make([]mica.Benchmark, 0, len(names))
	for _, n := range names {
		b, err := mica.BenchmarkByName(strings.TrimSpace(n))
		if err != nil {
			return nil, nil, err
		}
		set = append(set, b)
	}
	return names, set, nil
}

// benchConfig is one measured pipeline configuration.
type benchConfig struct {
	name    string
	measure func(b mica.Benchmark) (uint64, time.Duration, error)
}

// profilerConfigs are the three tracked profiler pipeline
// configurations of BENCH_profile.json.
func profilerConfigs(budget uint64) []benchConfig {
	return []benchConfig{
		{"raw-vm", func(b mica.Benchmark) (uint64, time.Duration, error) {
			// Instantiate is inside the timed region, as it is for the
			// profiler configs (Profile instantiates internally), so
			// the three configurations compare apples-to-apples.
			start := time.Now()
			m, err := b.Instantiate()
			if err != nil {
				return 0, 0, err
			}
			n, err := m.Run(budget, nil)
			if err != nil && err != vm.ErrBudget {
				return 0, 0, err
			}
			return n, time.Since(start), nil
		}},
		{"mica", func(b mica.Benchmark) (uint64, time.Duration, error) {
			cfg := mica.DefaultConfig()
			cfg.InstBudget = budget
			cfg.SkipHPC = true
			start := time.Now()
			pr, err := mica.Profile(b, cfg)
			if err != nil {
				return 0, 0, err
			}
			return pr.Insts, time.Since(start), nil
		}},
		{"mica+hpc", func(b mica.Benchmark) (uint64, time.Duration, error) {
			cfg := mica.DefaultConfig()
			cfg.InstBudget = budget
			start := time.Now()
			pr, err := mica.Profile(b, cfg)
			if err != nil {
				return 0, 0, err
			}
			return pr.Insts, time.Since(start), nil
		}},
	}
}

func mips(insts uint64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(insts) / d.Seconds() / 1e6
}
