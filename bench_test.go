package mica

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (go test -bench=.). Each BenchmarkTableX/FigureX
// regenerates that experiment from a shared profiling run and reports the
// paper-comparable statistic via b.ReportMetric, so `go test -bench=.`
// prints the same rows/series the paper reports:
//
//	Table I    benchmark registry               (122 rows)
//	Table II   the 47 characteristics
//	Figure 1   HPC vs uarch-indep distance      rho (paper 0.46)
//	Table III  tuple quadrants                  FN/TP/TN/FP (paper 0.2/56.9/1.8/41.1%)
//	Figure 2/3 bzip2 vs blast pitfall pair      per-space normalized distance
//	Figure 4   ROC curves                       AUC all/GA/CE (paper 0.72/0.69/0.67-0.64)
//	Figure 5   correlation vs subset size       GA rho (paper 0.876 at 8)
//	Table IV   GA-selected characteristics      subset size (paper 8)
//	Figure 6   k-means + BIC clusters           K (paper 15)
//
// Ablation benches cover the DESIGN.md design choices: PPM order, ILP
// window algorithm cost, memory-dependence tracking, GA population size,
// k-means seeding, and trace-budget stability.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"mica/internal/cluster"
	"mica/internal/featsel"
	"mica/internal/ga"
	"mica/internal/ivstore"
	micachar "mica/internal/mica"
	"mica/internal/phases"
	"mica/internal/stats"
	"mica/internal/trace"
	"mica/internal/uarch"
	"mica/internal/vm"
)

// benchBudget keeps the shared profiling run fast while exercising every
// benchmark's steady-state behaviour.
const benchBudget = 60_000

var (
	benchOnce    sync.Once
	benchProfile []ProfileResult
	benchAn      *Analysis
	benchErr     error
)

// benchData profiles all 122 benchmarks once per `go test -bench` run and
// analyzes them with the paper's configuration.
func benchData(b *testing.B) ([]ProfileResult, *Analysis) {
	b.Helper()
	benchOnce.Do(func() {
		cfg := DefaultConfig()
		cfg.InstBudget = benchBudget
		benchProfile, benchErr = ProfileBenchmarksCtx(context.Background(), Benchmarks(), cfg)
		if benchErr != nil {
			return
		}
		acfg := DefaultAnalysisConfig()
		benchAn = Analyze(benchProfile, acfg)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchProfile, benchAn
}

// --- per-table / per-figure benches ---

func BenchmarkTableI(b *testing.B) {
	results, _ := benchData(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = RenderTableI(results)
	}
	b.ReportMetric(float64(len(results)), "benchmarks")
	_ = out
}

func BenchmarkTableII(b *testing.B) {
	results, _ := benchData(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = RenderTableII(results)
	}
	b.ReportMetric(float64(NumChars), "characteristics")
	_ = out
}

func BenchmarkFigure1(b *testing.B) {
	results, an := benchData(b)
	b.ResetTimer()
	var rho float64
	for i := 0; i < b.N; i++ {
		s := NewSpace(results)
		rho = s.DistanceCorrelation()
	}
	b.ReportMetric(rho, "rho")
	_ = an
}

func BenchmarkTableIII(b *testing.B) {
	_, an := benchData(b)
	b.ResetTimer()
	var q Quadrants
	for i := 0; i < b.N; i++ {
		q = an.Space.ClassifyTuples(DefaultThresholdFraction)
	}
	fn, tp, tn, fp := q.Fractions()
	b.ReportMetric(fn*100, "FN%")
	b.ReportMetric(tp*100, "TP%")
	b.ReportMetric(tn*100, "TN%")
	b.ReportMetric(fp*100, "FP%")
}

func BenchmarkFigure2(b *testing.B) {
	_, an := benchData(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = an.RenderFigure2()
	}
	if len(out) < 100 {
		b.Fatal("figure 2 empty")
	}
}

func BenchmarkFigure3(b *testing.B) {
	_, an := benchData(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = an.RenderFigure3()
	}
	if len(out) < 100 {
		b.Fatal("figure 3 empty")
	}
}

func BenchmarkFigure4(b *testing.B) {
	_, an := benchData(b)
	b.ResetTimer()
	var aucAll, aucGA float64
	for i := 0; i < b.N; i++ {
		aucAll = AUC(an.Space.ROCCurve(nil, DefaultThresholdFraction))
		aucGA = AUC(an.Space.ROCCurve(an.GA.Selected, DefaultThresholdFraction))
	}
	b.ReportMetric(aucAll, "AUC-all")
	b.ReportMetric(aucGA, "AUC-GA")
	b.ReportMetric(an.AUCCE[17], "AUC-CE17")
}

func BenchmarkFigure5(b *testing.B) {
	_, an := benchData(b)
	b.ResetTimer()
	var curve []float64
	for i := 0; i < b.N; i++ {
		curve = an.Space.CECurve()
	}
	b.ReportMetric(an.GA.Rho, "GA-rho")
	b.ReportMetric(curve[16], "CE-rho-17")
}

func BenchmarkTableIV(b *testing.B) {
	results, _ := benchData(b)
	s := NewSpace(results)
	b.ResetTimer()
	var res GAResult
	for i := 0; i < b.N; i++ {
		res = s.GASelect(2006 + int64(i))
	}
	b.ReportMetric(float64(len(res.Selected)), "selected")
	b.ReportMetric(res.Rho, "rho")
}

func BenchmarkFigure6(b *testing.B) {
	_, an := benchData(b)
	b.ResetTimer()
	var sel ClusterSelection
	for i := 0; i < b.N; i++ {
		sel = an.Space.Cluster(an.GA.Selected, 70, 2006)
	}
	b.ReportMetric(float64(sel.Best.K), "K")
}

// BenchmarkAnalyze is the warm half of bench/'s paper workload: the
// whole Sections IV-VI evaluation (Analyze) plus every table, figure
// and report renderer, over the shared registry profile.
func BenchmarkAnalyze(b *testing.B) {
	results, _ := benchData(b)
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		a := Analyze(results, DefaultAnalysisConfig())
		n = len(strings.Join([]string{
			RenderTableI(results), RenderTableII(results),
			a.RenderFigure1(), a.RenderFigure2(), a.RenderFigure3(), a.RenderTableIII(),
			a.RenderFigure4(), a.RenderFigure5(), a.RenderTableIV(), a.RenderFigure6(true),
			a.SuiteSimilarityReport(),
		}, "\n"))
	}
	b.ReportMetric(float64(n), "bytes")
}

// --- profiling and simulator throughput benches ---

// BenchmarkProfileBenchmark measures full two-space profiling throughput
// in dynamic instructions per second.
func BenchmarkProfileBenchmark(b *testing.B) {
	bench, err := BenchmarkByName("SPEC2000/gzip/program")
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.InstBudget = 100_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Profile(bench, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cfg.InstBudget)*float64(b.N)/b.Elapsed().Seconds(), "insts/s")
}

// BenchmarkProfilerHotPath measures the end-to-end profiling hot path —
// the VM→observer→analyzer pipeline whose per-layer split bench/'s
// ledger reports (`bash bench/run.sh --trace 1`) — in dynamic
// instructions per second for the three standard configurations.
func BenchmarkProfilerHotPath(b *testing.B) {
	bench, err := BenchmarkByName("SPEC2000/gzip/program")
	if err != nil {
		b.Fatal(err)
	}
	const budget = 200_000
	run := func(b *testing.B, profile func() (uint64, error)) {
		b.Helper()
		var n uint64
		for i := 0; i < b.N; i++ {
			ran, err := profile()
			if err != nil {
				b.Fatal(err)
			}
			n += ran
		}
		b.ReportMetric(float64(n)/b.Elapsed().Seconds()/1e6, "MIPS")
	}
	b.Run("raw-vm", func(b *testing.B) {
		run(b, func() (uint64, error) {
			m, err := bench.Instantiate()
			if err != nil {
				return 0, err
			}
			n, err := m.Run(budget, nil)
			if err != nil && !errors.Is(err, vm.ErrBudget) {
				return 0, err
			}
			return n, nil
		})
	})
	b.Run("mica", func(b *testing.B) {
		cfg := DefaultConfig()
		cfg.InstBudget = budget
		cfg.SkipHPC = true
		run(b, func() (uint64, error) {
			res, err := Profile(bench, cfg)
			return res.Insts, err
		})
	})
	b.Run("mica+hpc", func(b *testing.B) {
		cfg := DefaultConfig()
		cfg.InstBudget = budget
		run(b, func() (uint64, error) {
			res, err := Profile(bench, cfg)
			return res.Insts, err
		})
	})
}

// BenchmarkPhaseHotPath measures phase-analysis throughput
// (phase-profiled MIPS) for two configurations: the naive reference
// path that allocates a fresh profiler per interval, and the streaming
// path that pools one profiler across all intervals (Reset in place)
// and clusters the result as the shard pipelines do.
func BenchmarkPhaseHotPath(b *testing.B) {
	bench, err := BenchmarkByName("SPEC2000/gzip/program")
	if err != nil {
		b.Fatal(err)
	}
	pcfg := phases.Config{IntervalLen: 1_000, MaxIntervals: 200, MaxK: 4, Seed: 2006}
	run := func(b *testing.B, analyze func(m *vm.Machine) (*phases.Result, error)) {
		b.Helper()
		var n uint64
		for i := 0; i < b.N; i++ {
			m, err := bench.Instantiate()
			if err != nil {
				b.Fatal(err)
			}
			res, err := analyze(m)
			if err != nil {
				b.Fatal(err)
			}
			n += res.TotalInsts()
		}
		b.ReportMetric(float64(n)/b.Elapsed().Seconds()/1e6, "MIPS")
	}
	b.Run("naive", func(b *testing.B) {
		run(b, func(m *vm.Machine) (*phases.Result, error) {
			return phases.AnalyzeUnpooled(m, pcfg)
		})
	})
	b.Run("pooled", func(b *testing.B) {
		prof := micachar.NewProfiler(pcfg.Options)
		run(b, func(m *vm.Machine) (*phases.Result, error) {
			res, err := phases.CharacterizeWith(m, prof, pcfg)
			if err != nil {
				return nil, err
			}
			insts := make([]uint64, len(res.Intervals))
			for i, iv := range res.Intervals {
				insts[i] = iv.Insts
			}
			return phases.ResultFromShard(&ivstore.ShardData{Insts: insts, Vecs: res.Vectors}, pcfg)
		})
	})
}

// ppmStreams holds the recorded branch streams BenchmarkPPMAnalyzer
// replays: 250k events of each of the six benchmarks bench/'s layer
// ledger replays, recorded once per `go test -bench` run. Each event
// keeps only what the PPM analyzer reads, packed into one word: the
// (4-byte aligned) PC, bit 1 Conditional, bit 0 Taken.
var (
	ppmStreamsOnce sync.Once
	ppmStreams     [][]uint64
	ppmStreamsErr  error
)

func ppmBenchStreams(b *testing.B) [][]uint64 {
	b.Helper()
	ppmStreamsOnce.Do(func() {
		for _, name := range []string{
			"SPEC2000/gzip/program",
			"SPEC2000/crafty/ref",
			"SPEC2000/mcf/ref",
			"MiBench/sha/large",
			"MiBench/FFT/fft-large",
			"MediaBench/mpeg2/encode",
		} {
			bench, err := BenchmarkByName(name)
			if err != nil {
				ppmStreamsErr = err
				return
			}
			m, err := bench.Instantiate()
			if err != nil {
				ppmStreamsErr = err
				return
			}
			var stream []uint64
			_, err = m.Run(250_000, trace.ObserverFunc(func(ev *trace.Event) {
				w := ev.PC
				if ev.Conditional {
					w |= 2
				}
				if ev.Taken {
					w |= 1
				}
				stream = append(stream, w)
			}))
			if err != nil && !errors.Is(err, vm.ErrBudget) {
				ppmStreamsErr = err
				return
			}
			ppmStreams = append(ppmStreams, stream)
		}
	})
	if ppmStreamsErr != nil {
		b.Fatal(ppmStreamsErr)
	}
	return ppmStreams
}

// BenchmarkPPMAnalyzer measures the PPM analyzer alone, all four
// variants at the default order, in ns per replayed event: "whole"
// profiles each stream with a fresh analyzer, as the paper pass does,
// and "interval600" Resets one pooled analyzer every 600 events, as
// bench/'s joint workload does.
func BenchmarkPPMAnalyzer(b *testing.B) {
	streams := ppmBenchStreams(b)
	events := 0
	for _, s := range streams {
		events += len(s)
	}
	replay := func(a *micachar.PPMAnalyzer, stream []uint64, resetEvery int) {
		var ev trace.Event
		for i, w := range stream {
			if resetEvery > 0 && i%resetEvery == 0 {
				a.Reset()
			}
			ev.PC, ev.Conditional, ev.Taken = w&^3, w&2 != 0, w&1 != 0
			a.Observe(&ev)
		}
	}
	report := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(events), "ns/event")
	}
	b.Run("whole", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, s := range streams {
				replay(micachar.NewPPMAnalyzer(micachar.DefaultPPMOrder), s, 0)
			}
		}
		report(b)
	})
	b.Run("interval600", func(b *testing.B) {
		a := micachar.NewPPMAnalyzer(micachar.DefaultPPMOrder)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, s := range streams {
				replay(a, s, 600)
			}
		}
		report(b)
	})
}

// BenchmarkClusterSweep measures the SelectK BIC sweep — the
// clustering back half of phase analysis, which bench/'s joint workload
// times at registry scale (cluster.sweep_cpu_s) — on a synthetic
// overlapping-blob matrix shaped like a z-scored interval space.
// Reported in million row-assignments per second (rows x maxK / wall
// time).
func BenchmarkClusterSweep(b *testing.B) {
	const rows, centers, maxK = 20_000, 12, 6
	m := cluster.SyntheticPhaseBlobs(rows, centers, 2006)
	run := func(b *testing.B, sweep func() cluster.Selection) {
		b.Helper()
		var sel cluster.Selection
		for i := 0; i < b.N; i++ {
			sel = sweep()
		}
		b.ReportMetric(float64(rows*maxK)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrows/s")
		b.ReportMetric(float64(sel.Best.K), "K")
	}
	b.Run("naive", func(b *testing.B) {
		run(b, func() cluster.Selection { return cluster.SelectKNaive(m, maxK, 2006) })
	})
	// 20k rows is above the 8192-row switch, so the default sweep runs
	// the minibatch engine.
	b.Run("parallel-minibatch", func(b *testing.B) {
		run(b, func() cluster.Selection { return cluster.SelectK(m, maxK, 2006) })
	})
}

// BenchmarkVMInterpreter measures bare interpreter speed without
// observers.
func BenchmarkVMInterpreter(b *testing.B) {
	bench, err := BenchmarkByName("MiBench/sha/large")
	if err != nil {
		b.Fatal(err)
	}
	m, err := bench.Instantiate()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var n uint64
	for i := 0; i < b.N; i++ {
		ran, err := m.Run(100_000, nil)
		if err != nil && !errors.Is(err, vm.ErrBudget) {
			b.Fatal(err)
		}
		n += ran
	}
	b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "insts/s")
}

// --- ablation benches (DESIGN.md section 5) ---

// BenchmarkAblationPPMOrder sweeps the PPM maximum order and reports the
// GAg predictability measured on a branchy benchmark at each order.
func BenchmarkAblationPPMOrder(b *testing.B) {
	bench, err := BenchmarkByName("SPEC2000/crafty/ref")
	if err != nil {
		b.Fatal(err)
	}
	for _, order := range []int{1, 2, 4, 8} {
		order := order
		b.Run(orderName(order), func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				m, err := bench.Instantiate()
				if err != nil {
					b.Fatal(err)
				}
				ppm := micachar.NewPPMAnalyzer(order)
				if _, err := m.Run(60_000, ppm); !errors.Is(err, vm.ErrBudget) {
					b.Fatal(err)
				}
				acc = ppm.Accuracy(micachar.PPMGAg)
			}
			b.ReportMetric(acc, "GAg-accuracy")
		})
	}
}

func orderName(o int) string {
	return fmt.Sprintf("order%d", o)
}

// BenchmarkAblationILPWindow measures the cost of the O(N) ring-buffer
// window model per window configuration.
func BenchmarkAblationILPWindow(b *testing.B) {
	bench, err := BenchmarkByName("MediaBench/mpeg2/encode")
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{32, 256} {
		w := w
		b.Run(windowName(w), func(b *testing.B) {
			var ipc float64
			for i := 0; i < b.N; i++ {
				m, err := bench.Instantiate()
				if err != nil {
					b.Fatal(err)
				}
				ilp := micachar.NewILPAnalyzer([]int{w}, true)
				if _, err := m.Run(60_000, ilp); !errors.Is(err, vm.ErrBudget) {
					b.Fatal(err)
				}
				ipc = ilp.IPC(0)
			}
			b.ReportMetric(ipc, "IPC")
		})
	}
}

func windowName(w int) string {
	if w >= 100 {
		return "w256"
	}
	return "w32"
}

// BenchmarkAblationMemDeps compares the idealized ILP with and without
// store-to-load dependence tracking.
func BenchmarkAblationMemDeps(b *testing.B) {
	bench, err := BenchmarkByName("MiBench/qsort/large")
	if err != nil {
		b.Fatal(err)
	}
	for _, track := range []bool{true, false} {
		track := track
		name := "tracked"
		if !track {
			name = "ignored"
		}
		b.Run(name, func(b *testing.B) {
			var ipc float64
			for i := 0; i < b.N; i++ {
				m, err := bench.Instantiate()
				if err != nil {
					b.Fatal(err)
				}
				ilp := micachar.NewILPAnalyzer([]int{128}, track)
				if _, err := m.Run(60_000, ilp); !errors.Is(err, vm.ErrBudget) {
					b.Fatal(err)
				}
				ipc = ilp.IPC(0)
			}
			b.ReportMetric(ipc, "IPC")
		})
	}
}

// BenchmarkAblationGA sweeps the GA population size; larger populations
// buy fitness at linear cost.
func BenchmarkAblationGA(b *testing.B) {
	results, _ := benchData(b)
	norm := stats.ZScoreNormalize(NewSpace(results).Chars)
	cache := featsel.NewDistanceCache(norm)
	fitness := func(genes []bool) float64 {
		k := 0
		for _, g := range genes {
			if g {
				k++
			}
		}
		if k == 0 {
			return -1
		}
		return cache.Rho(genes) * (1 - float64(k)/float64(NumChars))
	}
	for _, pop := range []int{16, 64} {
		pop := pop
		name := "pop16"
		if pop == 64 {
			name = "pop64"
		}
		b.Run(name, func(b *testing.B) {
			var fit float64
			for i := 0; i < b.N; i++ {
				res := ga.Run(ga.Config{Genes: NumChars, PopSize: pop,
					MaxGenerations: 60, StallGenerations: 15, Seed: int64(i)}, fitness)
				fit = res.Best.Fitness
			}
			b.ReportMetric(fit, "fitness")
		})
	}
}

// BenchmarkAblationKMeansSeed compares k-means++ seeding against naive
// first-K seeding by final SSE on the key space.
func BenchmarkAblationKMeansSeed(b *testing.B) {
	_, an := benchData(b)
	m := an.Space.NormChars.SelectColumns(an.GA.Selected)
	for _, pp := range []bool{true, false} {
		pp := pp
		name := "plusplus"
		if !pp {
			name = "firstk"
		}
		b.Run(name, func(b *testing.B) {
			var sse float64
			for i := 0; i < b.N; i++ {
				var res cluster.Result
				if pp {
					res = cluster.KMeans(m, 15, int64(i))
				} else {
					res = cluster.KMeansNaiveSeed(m, 15, int64(i))
				}
				sse = res.SSE
			}
			b.ReportMetric(sse, "SSE")
		})
	}
}

// BenchmarkAblationBudget measures characteristic stability against the
// trace budget: the normalized vector distance between a short and a 4X
// longer trace of the same benchmark.
func BenchmarkAblationBudget(b *testing.B) {
	bench, err := BenchmarkByName("CommBench/drr/drr")
	if err != nil {
		b.Fatal(err)
	}
	for _, budget := range []uint64{25_000, 100_000} {
		budget := budget
		name := "b25k"
		if budget == 100_000 {
			name = "b100k"
		}
		b.Run(name, func(b *testing.B) {
			var drift float64
			for i := 0; i < b.N; i++ {
				cfg := DefaultConfig()
				cfg.SkipHPC = true
				cfg.InstBudget = budget
				short, err := Profile(bench, cfg)
				if err != nil {
					b.Fatal(err)
				}
				cfg.InstBudget = budget * 4
				long, err := Profile(bench, cfg)
				if err != nil {
					b.Fatal(err)
				}
				drift = vectorDrift(short.Chars, long.Chars)
			}
			b.ReportMetric(drift, "drift")
		})
	}
}

// vectorDrift is the mean relative per-characteristic difference, with
// working-set counts compared on a log scale so trace-length growth does
// not dominate.
func vectorDrift(a, c Vector) float64 {
	sum, n := 0.0, 0
	for i := range a {
		x, y := a[i], c[i]
		if i >= 19 && i <= 22 { // working-set counts grow with trace length
			x, y = math.Log1p(x), math.Log1p(y)
		}
		den := math.Abs(x) + math.Abs(y)
		if den == 0 {
			continue
		}
		sum += math.Abs(x-y) / den
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// BenchmarkAblationCorrelationMetric compares Pearson (the paper's
// choice) with Spearman rank correlation for the Figure 1 statistic.
func BenchmarkAblationCorrelationMetric(b *testing.B) {
	_, an := benchData(b)
	b.Run("pearson", func(b *testing.B) {
		var rho float64
		for i := 0; i < b.N; i++ {
			rho = stats.Pearson(an.Space.HPCDist, an.Space.CharDist)
		}
		b.ReportMetric(rho, "rho")
	})
	b.Run("spearman", func(b *testing.B) {
		var rho float64
		for i := 0; i < b.N; i++ {
			rho = stats.Spearman(an.Space.HPCDist, an.Space.CharDist)
		}
		b.ReportMetric(rho, "rho")
	})
}

// BenchmarkEV56 and BenchmarkEV67 measure machine-model throughput.
func BenchmarkEV56(b *testing.B) {
	benchMachineModel(b, false)
}

func BenchmarkEV67(b *testing.B) {
	benchMachineModel(b, true)
}

func benchMachineModel(b *testing.B, ooo bool) {
	bench, err := BenchmarkByName("SPEC2000/twolf/ref")
	if err != nil {
		b.Fatal(err)
	}
	var n uint64
	var ipc float64
	for i := 0; i < b.N; i++ {
		m, err := bench.Instantiate()
		if err != nil {
			b.Fatal(err)
		}
		hpc := newSingleModel(ooo)
		ran, err := m.Run(100_000, hpc.obs)
		if err != nil && !errors.Is(err, vm.ErrBudget) {
			b.Fatal(err)
		}
		n += ran
		ipc = hpc.ipc()
	}
	b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "insts/s")
	b.ReportMetric(ipc, "IPC")
}

type singleModel struct {
	obs trace.Observer
	ipc func() float64
}

func newSingleModel(ooo bool) singleModel {
	if ooo {
		m := uarch.NewEV67(uarch.DefaultEV67Config())
		return singleModel{obs: m, ipc: m.IPC}
	}
	m := uarch.NewEV56(uarch.DefaultEV56Config())
	return singleModel{obs: m, ipc: m.IPC}
}

// BenchmarkReducedPipeline measures phase-aware reduced profiling in
// two configurations: the exact matched-grid full characterization
// (full 47-dim + HPC on every interval) and the two-pass reduced
// pipeline (sampled key-characteristic cheap pass, clustering, full
// characterization only on per-phase measured intervals). The metric
// is effective MIPS: trace instructions per second of wall time.
func BenchmarkReducedPipeline(b *testing.B) {
	bench, err := BenchmarkByName("SPEC2000/gzip/program")
	if err != nil {
		b.Fatal(err)
	}
	cfg := ReducedConfig{Phase: PhaseConfig{IntervalLen: 2_500, MaxIntervals: 80, MaxK: 6, Seed: 2006}}
	b.Run("full-grid", func(b *testing.B) {
		var n uint64
		for i := 0; i < b.N; i++ {
			ex, err := ProfileExact(bench, cfg)
			if err != nil {
				b.Fatal(err)
			}
			n += ex.TotalInsts()
		}
		b.ReportMetric(float64(n)/b.Elapsed().Seconds()/1e6, "MIPS")
	})
	b.Run("reduced", func(b *testing.B) {
		var n uint64
		for i := 0; i < b.N; i++ {
			rr, err := reduceOne(bench, cfg)
			if err != nil {
				b.Fatal(err)
			}
			n += rr.TotalInsts()
		}
		b.ReportMetric(float64(n)/b.Elapsed().Seconds()/1e6, "MIPS")
	})
}

// BenchmarkReducedStorePipeline measures store-backed reduced
// profiling — the pipeline bench/'s reduced workload runs on six
// benchmarks: the cheap sampled pass lands in an interval-vector store
// and the full-characterization replay gathers each benchmark's
// representatives back out of its shard. Effective
// MIPS: trace instructions per second of end-to-end wall time over the
// set.
func BenchmarkReducedStorePipeline(b *testing.B) {
	bs := make([]Benchmark, 0, 3)
	for _, name := range []string{
		"SPEC2000/gzip/program", "MiBench/sha/large", "MiBench/FFT/fft-large",
	} {
		bench, err := BenchmarkByName(name)
		if err != nil {
			b.Fatal(err)
		}
		bs = append(bs, bench)
	}
	cfg := ReducedPipelineConfig{Reduced: ReducedConfig{
		Phase: PhaseConfig{IntervalLen: 2_500, MaxIntervals: 80, MaxK: 6, Seed: 2006},
	}}
	var n uint64
	for i := 0; i < b.N; i++ {
		results, stats, err := AnalyzeReducedStoreCtx(context.Background(), bs, cfg, StoreOptions{Dir: filepath.Join(b.TempDir(), "store")})
		if err != nil {
			b.Fatal(err)
		}
		if stats.Cache.Decodes == 0 {
			b.Fatal("replay read no shard")
		}
		for _, r := range results {
			n += r.Result.TotalInsts()
		}
	}
	b.ReportMetric(float64(n)/b.Elapsed().Seconds()/1e6, "MIPS")
}

// BenchmarkJointStoreCluster times store-backed joint clustering alone
// (phases.AnalyzeJointStore: read and normalize the shards, sweep k,
// derive the vocabulary) on a synthetic 12,288-row store, large enough
// for the minibatch engine. The store is built once; "cold" sweeps
// from k-means++ and "warm" from the cold run's state, as bench/'s
// joint rerun does. Reported in ns per store row.
func BenchmarkJointStoreCluster(b *testing.B) {
	const shards, perShard = 12, 1024
	m := cluster.SyntheticPhaseBlobs(shards*perShard, 12, 2006)
	st, err := ivstore.Create(b.TempDir(), ivstore.Config{Dims: NumChars, ConfigHash: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	names := make([]string, shards)
	insts := make([]uint64, perShard)
	for i := range insts {
		insts[i] = 1000
	}
	for s := range names {
		names[s] = fmt.Sprintf("synthetic/%02d", s)
		rows := &stats.Matrix{Rows: perShard, Cols: NumChars, Data: m.Data[s*perShard*NumChars : (s+1)*perShard*NumChars]}
		if err := st.WriteShard(names[s], insts, rows); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := st.Commit(names); err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	cfg := phases.Config{MaxK: 6, Seed: 2006}
	cold, _, err := phases.AnalyzeJointStore(context.Background(), st, cfg, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		warm *phases.JointWarmState
	}{{"cold", nil}, {"warm", cold.WarmState(st.ConfigHash())}} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, used, err := phases.AnalyzeJointStore(context.Background(), st, cfg, 0, tc.warm)
				if err != nil || used != (tc.warm != nil) {
					b.Fatalf("warm start used=%v: %v", used, err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*shards*perShard), "ns/row")
		})
	}
}

// BenchmarkJointStorePipeline measures joint phase analysis in two
// configurations: the in-memory flat-matrix path against the
// store-backed path (characterize into float32 shards, then cluster
// the normalized matrix read back from them), which bench/'s joint
// workload runs at registry scale. Effective MIPS: profiled trace
// instructions per second of end-to-end wall time.
func BenchmarkJointStorePipeline(b *testing.B) {
	bs := make([]Benchmark, 0, 4)
	for _, name := range []string{
		"MiBench/sha/large", "CommBench/drr/drr", "SPEC2000/gzip/program", "MiBench/FFT/fft-large",
	} {
		bench, err := BenchmarkByName(name)
		if err != nil {
			b.Fatal(err)
		}
		bs = append(bs, bench)
	}
	pcfg := PhasePipelineConfig{Phase: PhaseConfig{IntervalLen: 1_000, MaxIntervals: 40, MaxK: 4, Seed: 2006}}
	b.Run("inmemory", func(b *testing.B) {
		var n uint64
		for i := 0; i < b.N; i++ {
			rep, err := Run(context.Background(), Request{Benchmarks: bs, Joint: true, Phases: &pcfg})
			if err != nil {
				b.Fatal(err)
			}
			n += rep.Joint.TotalInsts()
		}
		b.ReportMetric(float64(n)/b.Elapsed().Seconds()/1e6, "MIPS")
	})
	b.Run("store", func(b *testing.B) {
		var n uint64
		for i := 0; i < b.N; i++ {
			rep, err := Run(context.Background(), Request{
				Benchmarks: bs, Joint: true, Phases: &pcfg, Store: StoreOptions{Dir: filepath.Join(b.TempDir(), "store")},
			})
			if err != nil {
				b.Fatal(err)
			}
			n += rep.Joint.TotalInsts()
		}
		b.ReportMetric(float64(n)/b.Elapsed().Seconds()/1e6, "MIPS")
	})
}
