// Command mica-phases runs interval-based phase analysis — the
// SimPoint-style extension of the paper's Table II characterization —
// over one benchmark, the whole registry, or a joint cross-benchmark
// phase space, and drives phase-aware reduced profiling on top of it.
//
// Every run is one mica.Run call: -reduced picks the pipeline (phase
// analysis or reduced profiling), -joint picks per-benchmark or shared
// clustering, -store picks in-memory or store-backed
// characterization, and -bench, -all or -trace pick the benchmarks (a
// trace file enters as one trace-backed benchmark). The tool renders
// whichever result the report carries.
//
// For a single benchmark it prints the phase timeline, the weighted
// representative simulation points and the reconstruction error of the
// weighted vector against the full interval aggregate. With -all (or a
// -bench list) it runs the sharded pipeline (one pooled profiler per
// worker) and prints one summary row per benchmark in input order.
// With -joint it characterizes every selected benchmark, clusters ALL
// intervals once into a shared phase vocabulary, and prints each
// benchmark's occupancy of the shared phases plus the cross-benchmark
// representative intervals.
//
// With -reduced the tool runs two-pass reduced profiling instead: a
// cheap sampled pass measuring only the paper's 8 GA-selected key
// characteristics positions every interval in the phase space, and a
// replay pass pays the full 47-characteristic + EV56/EV67 HPC
// characterization only on a few intervals per phase, extrapolating
// the whole-run vectors. Combined with -joint, the shared vocabulary's
// intervals are measured once for the entire benchmark set.
//
// With -store DIR a run persists its characterization in the on-disk
// interval-vector store instead of keeping its shards in memory: every
// benchmark's intervals are written as a columnar float32 shard, and
// the analysis, the same code either way, reads each shard back once;
// the joint clustering holds one n x 47 normalized matrix.
// -store drives every pipeline but -trace: -bench and -all cluster
// each benchmark from its shard, -joint clusters the shared
// vocabulary from the stored rows, and -reduced lands its cheap pass in
// the store while the replay gathers representatives back out of it.
// With -incremental a rerun reuses every shard whose benchmark and
// configuration are unchanged and re-characterizes only the rest (an
// unchanged rerun profiles nothing); with -warm a joint rerun
// additionally seeds its clustering from the state the previous run
// persisted next to the store.
//
// Usage:
//
//	mica-phases -bench SPEC2000/twolf/ref [-interval 10000] [-intervals 100]
//	mica-phases -trace recorded.trc [-bench display/name/here]
//	mica-phases -all [-workers 8] [-maxk 10] [-seed 2006]
//	mica-phases -joint [-bench name,name,...] [-maxk 10]
//	mica-phases -reduced [-bench name | -all | -joint] [-sample 0.2] [-reps 3]
//	mica-phases [-reduced] {-bench name | -all | -joint} -store phases.ivs [-incremental]
//	mica-phases [-reduced] -joint -store phases.ivs -incremental -warm
//	mica-phases -store phases.ivs -fsck [-repair]
//
// SIGINT or SIGTERM cancels the run cleanly: in-flight benchmarks
// drain, store-backed runs commit every shard finished so far, and a
// rerun with -incremental resumes from the committed shards instead
// of starting over. -fsck verifies a store's integrity (manifest,
// per-shard CRCs, crash artifacts) and -fsck -repair quarantines
// corrupt shards and clears crash debris so the store reopens
// cleanly.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"mica"
	"mica/internal/obs"
	"mica/internal/report"
	"mica/internal/suites"
)

func main() {
	var (
		benchName    = flag.String("bench", "", "benchmarks to analyze (suite/program/input), comma-separated; with -trace, the display name")
		all          = flag.Bool("all", false, "analyze all 122 benchmarks with the sharded pipeline")
		joint        = flag.Bool("joint", false, "cluster the selected benchmarks' intervals jointly into one shared phase vocabulary")
		reduced      = flag.Bool("reduced", false, "two-pass reduced profiling: cheap key-characteristic pass positions intervals, full 47-dim + HPC characterization paid only on per-phase measured intervals")
		storeDir     = flag.String("store", "", "persist the characterization in an interval-vector store at this directory (any pipeline but -trace)")
		incremental  = flag.Bool("incremental", false, "with -store: reuse unchanged shards, re-characterizing only benchmarks whose configuration or membership changed")
		intervalLen  = flag.Uint64("interval", 10_000, "interval length in dynamic instructions")
		maxIntervals = flag.Int("intervals", 100, "maximum number of intervals per benchmark")
		maxK         = flag.Int("maxk", 10, "maximum K for the BIC phase sweep")
		seed         = flag.Int64("seed", 2006, "k-means seed")
		workers      = flag.Int("workers", 0, "pipeline workers for -all/-joint (0 = GOMAXPROCS)")
		sampleFrac   = flag.Float64("sample", 0, "cheap-pass sample fraction per interval with -reduced (0 = default 0.2)")
		repsPerPhase = flag.Int("reps", 0, "measured intervals per phase with -reduced (0 = default 3)")
		skipHPC      = flag.Bool("skiphpc", false, "skip the EV56/EV67 machine models on the reduced replay pass")
		warm         = flag.Bool("warm", false, "with -joint -store: seed the clustering from the warm state a previous run persisted next to the store")
		fsck         = flag.Bool("fsck", false, "with -store: verify the store's integrity (manifest, per-shard CRCs, crash artifacts) and exit")
		repair       = flag.Bool("repair", false, "with -store -fsck: quarantine corrupt shards and remove crash artifacts so the store reopens cleanly")
		tracePath    = flag.String("trace", "", "analyze a recorded trace file instead of an embedded benchmark (phase analysis replays it twice)")
		statsOut     = flag.String("stats", "", "after the run, dump the observability registry (stage durations, cache/pool counters) as JSON to this file (\"-\" = stdout)")
		version      = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(obs.Build())
		return
	}

	// A signal cancels the pipeline context instead of killing the
	// process mid-write: workers drain, finished shards commit, and an
	// -incremental rerun resumes from them.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := mica.PhaseConfig{
		IntervalLen:  *intervalLen,
		MaxIntervals: *maxIntervals,
		MaxK:         *maxK,
		Seed:         *seed,
	}
	sopt := mica.StoreOptions{
		Dir: *storeDir, Incremental: *incremental, WarmStart: *warm,
	}
	fl := cliFlags{
		bench: *benchName, all: *all, joint: *joint, reduced: *reduced,
		storeDir: *storeDir, incremental: *incremental,
		warm: *warm, fsck: *fsck, repair: *repair,
		trace: *tracePath, sample: *sampleFrac, reps: *repsPerPhase, skipHPC: *skipHPC,
	}
	err := validateFlags(fl)
	switch {
	case err != nil:
	case *fsck || *repair:
		err = runFsck(*storeDir, *repair)
	case *reduced:
		rcfg := mica.ReducedConfig{
			Phase:        cfg,
			SampleFrac:   *sampleFrac,
			RepsPerPhase: *repsPerPhase,
			SkipHPC:      *skipHPC,
		}
		err = runReduced(ctx, *benchName, *all, *joint, rcfg, sopt, *workers)
	default:
		err = run(ctx, *benchName, *tracePath, *all, *joint, sopt, cfg, *workers)
	}
	// The stats dump happens even after a failed run: a partial
	// snapshot (what characterized, how long each stage took before
	// the error) is exactly what a post-mortem wants.
	if *statsOut != "" {
		if serr := obs.DumpStats(*statsOut); serr != nil && err == nil {
			err = serr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mica-phases:", err)
		os.Exit(1)
	}
}

// cliFlags is the flag combination a run was invoked with, gathered
// for validation (and table-tested as one unit).
type cliFlags struct {
	bench               string
	all, joint, reduced bool
	storeDir            string
	incremental, warm   bool
	fsck, repair        bool
	trace               string
	sample              float64
	reps                int
	skipHPC             bool
}

// validateFlags rejects inconsistent flag combinations up front, with
// errors that name the fix. nil means the combination is runnable.
func validateFlags(f cliFlags) error {
	switch {
	case f.fsck || f.repair:
		switch {
		case f.storeDir == "":
			return fmt.Errorf("-fsck/-repair check an interval-vector store; pass -store DIR")
		case f.repair && !f.fsck:
			return fmt.Errorf("-repair rides on the fsck pass; pass -fsck -repair")
		}
		return nil
	case f.storeDir != "" && f.trace != "":
		return fmt.Errorf("-store keys shards by benchmark name, which a trace file's contents can drift from; drop -store for -trace runs")
	case f.storeDir == "" && (f.incremental || f.warm):
		return fmt.Errorf("-incremental and -warm only apply to -store runs")
	case !f.reduced && (f.sample != 0 || f.reps != 0 || f.skipHPC):
		return fmt.Errorf("-sample, -reps and -skiphpc only apply to -reduced runs")
	case f.warm && !f.joint:
		return fmt.Errorf("-warm seeds the joint clustering; combine it with -joint")
	case f.trace != "" && (f.all || f.joint || f.reduced):
		return fmt.Errorf("-trace analyzes one recorded file; it does not combine with -all, -joint or -reduced")
	}
	return nil
}

// runFsck verifies (and with repair, repairs) the store at dir. A
// dirty store makes the verify-only form exit nonzero so scripts can
// gate on it; a successful repair exits zero with the report of what
// was quarantined or removed.
func runFsck(dir string, repair bool) error {
	if repair {
		rep, err := mica.RepairIVStore(dir)
		if err != nil {
			return err
		}
		fmt.Print(rep.String())
		if len(rep.Quarantined) > 0 {
			// Only the command that built the store stamps its shards the
			// same way; any other pipeline would re-characterize everything.
			fmt.Printf("%d shards quarantined; rerun the command that built %s with -incremental to re-characterize exactly those benchmarks\n",
				len(rep.Quarantined), dir)
		}
		return nil
	}
	rep, err := mica.VerifyIVStore(dir)
	if err != nil {
		return err
	}
	fmt.Print(rep.String())
	if !rep.Clean() {
		return fmt.Errorf("store %s failed verification; run -fsck -repair to quarantine bad shards and clear crash artifacts", dir)
	}
	return nil
}

// run drives the phase pipelines.
func run(ctx context.Context, benchName, tracePath string, all, joint bool, sopt mica.StoreOptions, cfg mica.PhaseConfig, workers int) error {
	return execute(ctx, benchName, tracePath, all, mica.Request{
		Joint:  joint,
		Phases: &mica.PhasePipelineConfig{Phase: cfg, Workers: workers, Progress: progressLine},
		Store:  sopt,
	})
}

// runReduced drives the two-pass reduced pipelines.
func runReduced(ctx context.Context, benchName string, all, joint bool, rcfg mica.ReducedConfig, sopt mica.StoreOptions, workers int) error {
	return execute(ctx, benchName, "", all, mica.Request{
		Joint:   joint,
		Reduced: &mica.ReducedPipelineConfig{Reduced: rcfg, Workers: workers, Progress: progressLine},
		Store:   sopt,
	})
}

// execute fills in the benchmarks req covers, makes the one mica.Run
// call and renders whichever result the report carries.
func execute(ctx context.Context, benchName, tracePath string, all bool, req mica.Request) error {
	var err error
	switch {
	case tracePath != "":
		req.Benchmarks = []mica.Benchmark{mica.TraceBenchmark(benchName, tracePath)}
	case all && !req.Joint:
		req.Benchmarks = mica.Benchmarks()
	case req.Joint || benchName != "" || (req.Reduced != nil && req.Store.Dir != ""):
		// A joint run without -bench, or a reduced store run without
		// -bench or -all, covers the whole registry.
		req.Benchmarks, err = suites.Select(benchName)
	default:
		return fmt.Errorf("pass -bench <name>, -trace <file>, -all or -joint")
	}
	if err != nil {
		return err
	}
	rep, err := mica.Run(ctx, req)
	switch {
	case req.Store.Dir == "":
		fmt.Fprintln(os.Stderr) // terminate the \r progress line
	case rep != nil && rep.Store != nil:
		reportStoreBuild(req.Store.Dir, rep.Store, err != nil)
	}
	if err != nil {
		return err
	}
	switch {
	case rep.Joint != nil:
		return renderJoint(rep.Joint)
	case rep.JointReduced != nil:
		return renderReducedJoint(rep.JointReduced)
	case len(rep.Phases) == 1:
		return renderPhasesSingle(rep.Phases[0], req.Phases.Phase.IntervalLen)
	case rep.Phases != nil:
		t := report.NewTable("benchmark", "intervals", "insts", "phases", "top weight", "recon err")
		for _, r := range rep.Phases {
			res := r.Result
			top := 0.0
			if len(res.Representatives) > 0 {
				top = res.Representatives[0].Weight
			}
			t.AddRow(r.Benchmark.Name(), len(res.Intervals), res.TotalInsts(), res.K,
				fmt.Sprintf("%.3f", top), fmt.Sprintf("%.4f", res.ReconstructionError()))
		}
		fmt.Print(t.String())
	case len(rep.Reduced) == 1:
		return renderReducedSingle(rep.Reduced[0])
	default:
		t := report.NewTable("benchmark", "intervals", "phases", "measured", "full insts", "skipped insts")
		for _, r := range rep.Reduced {
			res := r.Result
			t.AddRow(r.Benchmark.Name(), len(res.Phases.Intervals), res.Phases.K,
				len(res.Measured), res.MeasuredInsts, res.SkippedInsts)
		}
		fmt.Print(t.String())
	}
	return nil
}

// renderPhasesSingle prints one benchmark's phase decomposition: the
// timeline, the weighted representative simulation points and the
// reconstruction error.
func renderPhasesSingle(r mica.BenchmarkPhases, intervalLen uint64) error {
	res := r.Result
	fmt.Printf("%s: %d intervals of %d instructions -> %d phases\n\n",
		r.Benchmark.Name(), len(res.Intervals), intervalLen, res.K)

	fmt.Println("phase timeline (one symbol per interval):")
	for _, p := range res.Assign {
		fmt.Printf("%c", 'A'+p%26)
	}
	fmt.Println()

	fmt.Println("\nrepresentative simulation points:")
	t := report.NewTable("phase", "interval", "instructions", "weight", "loads", "branches", "ILP-256")
	for _, rep := range res.Representatives {
		iv := res.Intervals[rep.Interval]
		t.AddRow(phaseLabel(rep.Phase), rep.Interval,
			fmt.Sprintf("%d..%d", iv.Start, iv.Start+iv.Insts),
			fmt.Sprintf("%.3f", rep.Weight),
			fmt.Sprintf("%.3f", res.Vectors.At(rep.Interval, 0)),
			fmt.Sprintf("%.3f", res.Vectors.At(rep.Interval, 2)),
			fmt.Sprintf("%.2f", res.Vectors.At(rep.Interval, 9)))
	}
	fmt.Print(t.String())

	fmt.Printf("\nweighted-vector reconstruction error: %.4f mean abs per characteristic\n",
		res.ReconstructionError())
	return nil
}

func progressLine(done, total int, name string) {
	fmt.Fprintf(os.Stderr, "\r[%3d/%3d] %-60s", done, total, name)
}

// reportStoreBuild summarizes what a store-backed run did — including
// a failed or cancelled one, whose partial commit is the resume point
// for the next -incremental rerun.
func reportStoreBuild(dir string, stats *mica.StoreBuildStats, failed bool) {
	fmt.Fprintln(os.Stderr)
	out := os.Stdout
	if failed {
		// A failing run's summary belongs with its error, not in the
		// result stream.
		out = os.Stderr
	}
	fmt.Fprintf(out, "store %s: %d shards characterized, %d reused in place\n",
		dir, len(stats.Characterized), len(stats.Reused))
	if len(stats.Failed) > 0 {
		fmt.Fprintf(out, "  failed: %s\n", strings.Join(stats.Failed, ", "))
	}
	if len(stats.Skipped) > 0 {
		fmt.Fprintf(out, "  skipped (cancelled before dispatch): %d benchmarks\n", len(stats.Skipped))
	}
	for _, w := range stats.CommitWarnings {
		fmt.Fprintf(out, "  commit warning: %s\n", w)
	}
	if stats.WarmStarted {
		fmt.Fprintf(out, "  clustering warm-started from the previous run's state\n")
	}
	if stats.Cache.Decodes > 0 {
		fmt.Fprintf(out, "  shard reads: %d\n", stats.Cache.Decodes)
	}
	if failed && len(stats.Characterized)+len(stats.Reused) > 0 {
		fmt.Fprintf(out, "  committed shards are durable; rerun with -incremental to resume from them\n")
	}
	if !failed {
		fmt.Fprintln(out)
	}
}

// renderReducedSingle prints one benchmark's reduced profile: the
// measurement plan, the extrapolated whole-run vectors and the cost
// accounting.
func renderReducedSingle(r mica.BenchmarkReduced) error {
	res := r.Result
	ph := res.Phases
	fmt.Printf("%s: %d intervals -> %d phases, %d intervals measured in full\n\n",
		r.Benchmark.Name(), len(ph.Intervals), ph.K, len(res.Measured))

	fmt.Println("measured intervals (full 47-dim + HPC characterization):")
	t := report.NewTable("phase", "interval", "insts", "loads", "ILP-256", "IPC EV56")
	for _, mi := range res.Measured {
		ipc := "-"
		if res.HasHPC {
			ipc = fmt.Sprintf("%.3f", mi.HPC[0])
		}
		t.AddRow(phaseLabel(mi.Phase), mi.Interval, mi.Insts,
			fmt.Sprintf("%.3f", mi.Chars[0]), fmt.Sprintf("%.2f", mi.Chars[9]), ipc)
	}
	fmt.Print(t.String())

	fmt.Println("\nextrapolated whole-run profile (phase-weighted):")
	et := report.NewTable("metric", "value")
	et.AddRow("pct loads", fmt.Sprintf("%.4f", res.Chars[0]))
	et.AddRow("pct branches", fmt.Sprintf("%.4f", res.Chars[2]))
	et.AddRow("ILP-256", fmt.Sprintf("%.2f", res.Chars[9]))
	if res.HasHPC {
		et.AddRow("IPC EV56", fmt.Sprintf("%.3f", res.HPC[0]))
		et.AddRow("IPC EV67", fmt.Sprintf("%.3f", res.HPC[1]))
	}
	fmt.Print(et.String())

	total := res.TotalInsts()
	fmt.Printf("\ncost: cheap pass observed %d insts (%.0f%%), replay measured %d (%.1f%%), fast-forwarded %d\n",
		res.SampledInsts, 100*float64(res.SampledInsts)/float64(total),
		res.MeasuredInsts, 100*float64(res.MeasuredInsts)/float64(total),
		res.SkippedInsts)
	return nil
}

// renderReducedJoint prints a joint reduction: the shared measurement
// plan and every benchmark's extrapolated vectors.
func renderReducedJoint(jr *mica.PhaseJointReduced) error {
	j := jr.Joint
	fmt.Printf("joint reduced profile: %d benchmarks, %d shared phases, %d intervals measured in full\n\n",
		len(j.Benchmarks), j.K, len(jr.Measured))

	fmt.Println("shared measured intervals:")
	t := report.NewTable("phase", "benchmark", "interval", "insts")
	for _, mi := range jr.Measured {
		t.AddRow(phaseLabel(mi.Phase), j.Benchmarks[mi.Bench], mi.Interval, mi.Insts)
	}
	fmt.Print(t.String())

	fmt.Println("\nper-benchmark extrapolations (from the shared measurements):")
	et := report.NewTable("benchmark", "pct loads", "ILP-256", "IPC EV56")
	for bi, name := range j.Benchmarks {
		ipc := "-"
		if jr.HasHPC {
			ipc = fmt.Sprintf("%.3f", jr.HPC[bi][0])
		}
		et.AddRow(name, fmt.Sprintf("%.4f", jr.Chars[bi][0]), fmt.Sprintf("%.2f", jr.Chars[bi][9]), ipc)
	}
	fmt.Print(et.String())

	fmt.Printf("\ncost: replay measured %d insts, fast-forwarded %d across the whole set\n",
		jr.MeasuredInsts, jr.SkippedInsts)
	return nil
}

// phaseLabel names phase p: A..Z, then A26..Z26, A52.. so labels stay
// unique however large the BIC sweep's K is. The timeline keeps the
// bare one-rune cycle (one symbol per interval is its whole point).
func phaseLabel(p int) string {
	if p < 26 {
		return fmt.Sprintf("%c", 'A'+p)
	}
	return fmt.Sprintf("%c%d", 'A'+p%26, p-p%26)
}

// renderJoint prints the shared vocabulary: size, per-benchmark
// occupancy of every shared phase, and the cross-benchmark
// representatives.
func renderJoint(j *mica.PhaseJointResult) error {
	fmt.Printf("joint phase space: %d benchmarks, %d intervals, %d insts -> %d shared phases\n\n",
		len(j.Benchmarks), len(j.Rows), j.TotalInsts(), j.K)

	header := []string{"benchmark"}
	for c := 0; c < j.K; c++ {
		header = append(header, phaseLabel(c))
	}
	t := report.NewTable(header...)
	for b, name := range j.Benchmarks {
		row := []any{name}
		for c := 0; c < j.K; c++ {
			row = append(row, fmt.Sprintf("%.3f", j.PhaseShare(b, c)))
		}
		t.AddRow(row...)
	}
	fmt.Println("per-benchmark occupancy of the shared phases (instruction shares):")
	fmt.Print(t.String())

	fmt.Println("\ncross-benchmark representative intervals:")
	rt := report.NewTable("phase", "weight", "benchmark", "interval")
	for _, rep := range j.Representatives {
		rt.AddRow(phaseLabel(rep.Phase),
			fmt.Sprintf("%.3f", rep.Weight),
			j.Benchmarks[rep.Bench], rep.Interval)
	}
	fmt.Print(rt.String())
	return nil
}
