package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mica"
	micachar "mica/internal/mica"
	"mica/internal/trace"
	"mica/internal/uarch"
	"mica/internal/vm"
)

// The layer ledger: the six defaultSet benchmarks are recorded into
// in-memory trace images, and every event-level layer replays them
// alone through its public Observe call. A layer's cost is
// (decode + layer) - decode, each the median over the repetitions,
// which run interleaved so load drift hits every layer alike.

type ledgerConfig struct {
	Benchmarks []string
	Budget     uint64
	Reps       int
}

func defaultLedgerConfig() ledgerConfig {
	return ledgerConfig{Benchmarks: defaultSet, Budget: 250_000, Reps: 5}
}

// filler is an analyzer that fills its coordinates of the vector.
type filler interface {
	trace.Observer
	Fill(v *micachar.Vector)
}

// analyzers are the six analyzers the profiler fans out to, with the
// coordinate range [lo, hi] each one fills.
var analyzers = []struct {
	name   string
	lo, hi int
	make   func() filler
}{
	{"mix", micachar.CharPctLoads, micachar.CharPctFP, func() filler { return micachar.NewMixAnalyzer() }},
	{"ilp", micachar.CharILP32, micachar.CharILP256, func() filler { return micachar.NewILPAnalyzer(nil, true) }},
	{"regtraffic", micachar.CharAvgInputOperands, micachar.CharDepDistLE64, func() filler { return micachar.NewRegTrafficAnalyzer() }},
	{"workingset", micachar.CharDWSBlocks, micachar.CharIWSPages, func() filler { return micachar.NewWorkingSetAnalyzer() }},
	{"stride", micachar.CharLocalLoadStride0, micachar.CharGlobalStoreStrideLE4096, func() filler { return micachar.NewStrideAnalyzer() }},
	{"ppm", micachar.CharPPMGAg, micachar.CharPPMPAs, func() filler {
		return micachar.NewPPMAnalyzerVariants(micachar.DefaultPPMOrder, nil)
	}},
}

// layerRun is one replay configuration: a fresh observer per trace.
type layerRun struct {
	name string
	make func() trace.Observer
}

type noop struct{}

func (noop) Observe(*trace.Event) {}

func ledgerRuns() []layerRun {
	runs := []layerRun{{"decode", func() trace.Observer { return noop{} }}}
	for _, a := range analyzers {
		runs = append(runs, layerRun{a.name, func() trace.Observer { return a.make() }})
	}
	return append(runs,
		layerRun{"profiler", func() trace.Observer { return micachar.NewProfiler(micachar.DefaultOptions()) }},
		layerRun{"keysubset", func() trace.Observer { return micachar.NewProfiler(micachar.Options{Subset: mica.KeySubset()}) }},
		layerRun{"ev56", func() trace.Observer { return uarch.NewEV56(uarch.DefaultEV56Config()) }},
		layerRun{"ev67", func() trace.Observer { return uarch.NewEV67(uarch.DefaultEV67Config()) }},
		layerRun{"hpc", func() trace.Observer { return uarch.NewHPCProfiler() }},
	)
}

// traceImage is one recorded benchmark held in memory.
type traceImage struct {
	name   string
	data   []byte
	events uint64
}

func recordImages(h *harness, cfg ledgerConfig) ([]traceImage, error) {
	dir, err := h.tempDir("ledger")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var out []traceImage
	for i, name := range cfg.Benchmarks {
		b, err := mica.BenchmarkByName(name)
		if err != nil {
			return nil, err
		}
		path := filepath.Join(dir, fmt.Sprintf("b%d.trc", i))
		n, err := mica.RecordTrace(b, path, cfg.Budget)
		if err != nil {
			return nil, err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		out = append(out, traceImage{name: name, data: data, events: n})
	}
	return out, nil
}

// replay runs every image through a fresh observer of run and returns
// the elapsed time, the heap allocations made while replaying, and the
// observers.
func replay(images []traceImage, run layerRun) (time.Duration, uint64, []trace.Observer, error) {
	observers := make([]trace.Observer, len(images))
	for i := range observers {
		observers[i] = run.make()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i, img := range images {
		rd, err := trace.NewReader(img.data, img.name)
		if err != nil {
			return 0, 0, nil, err
		}
		if _, err := rd.Run(0, observers[i]); err != nil {
			return 0, 0, nil, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return elapsed, after.Mallocs - before.Mallocs, observers, nil
}

// liveVM times the interpreter itself: a fresh machine per benchmark,
// run to the budget with a no-op observer.
func liveVM(cfg ledgerConfig) (time.Duration, uint64, error) {
	var total time.Duration
	var insts uint64
	for _, name := range cfg.Benchmarks {
		b, err := mica.BenchmarkByName(name)
		if err != nil {
			return 0, 0, err
		}
		m, err := b.Instantiate()
		if err != nil {
			return 0, 0, err
		}
		start := time.Now()
		n, err := m.Run(cfg.Budget, noop{})
		total += time.Since(start)
		if err != nil && !errors.Is(err, vm.ErrBudget) {
			return 0, 0, err
		}
		insts += n
	}
	return total, insts, nil
}

// runLedger measures the ledger, checks it, and adds its metrics.
func runLedger(ctx context.Context, h *harness, r *result, cfg ledgerConfig) error {
	images, err := recordImages(h, cfg)
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	var events uint64
	for _, img := range images {
		events += img.events
	}
	ev := float64(events)
	runs := ledgerRuns()
	ns := make(map[string][]float64)     // per run, per rep: ns/event
	allocs := make(map[string][]float64) // per run, per rep: allocs/event
	var vmNs []float64
	var last map[string][]trace.Observer
	for rep := 0; rep < cfg.Reps; rep++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		last = make(map[string][]trace.Observer)
		for _, run := range runs {
			d, mallocs, obs, err := replay(images, run)
			if err != nil {
				return fmt.Errorf("ledger %s: %w", run.name, err)
			}
			ns[run.name] = append(ns[run.name], float64(d.Nanoseconds())/ev)
			allocs[run.name] = append(allocs[run.name], float64(mallocs)/ev)
			last[run.name] = obs
		}
		d, insts, err := liveVM(cfg)
		if err != nil {
			return fmt.Errorf("ledger vm: %w", err)
		}
		vmNs = append(vmNs, float64(d.Nanoseconds())/float64(insts))
	}

	// Each layer's cost per repetition, net of decoding in the same
	// repetition; the fan-out residual is the full profiler minus the
	// six analyzers run alone.
	net := func(per map[string][]float64, name string) []float64 {
		out := make([]float64, cfg.Reps)
		for i := range out {
			out[i] = per[name][i] - per["decode"][i]
		}
		return out
	}
	fanout := net(ns, "profiler")
	sum := make([]float64, cfg.Reps)
	for _, a := range analyzers {
		for i, v := range net(ns, a.name) {
			sum[i] += v
			fanout[i] -= v
		}
	}
	r.metric("vm.ns_per_inst", vmNs...)
	r.metric("trace.decode_ns_per_event", ns["decode"]...)
	for _, a := range analyzers {
		r.metric("mica."+a.name+"_ns_per_event", net(ns, a.name)...)
	}
	r.metric("mica.profiler_ns_per_event", net(ns, "profiler")...)
	r.metric("mica.fanout_ns_per_event", fanout...)
	r.metric("mica.keysubset_ns_per_event", net(ns, "keysubset")...)
	for _, m := range []string{"ev56", "ev67", "hpc"} {
		r.metric("uarch."+m+"_ns_per_event", net(ns, m)...)
	}
	r.metric("mica.allocs_per_event", net(allocs, "profiler")...)
	r.metric("uarch.allocs_per_event", net(allocs, "hpc")...)
	// The six layers plus the fan-out residual add up to the profiler,
	// printed beside it so the largest layer stands out.
	withFanout := make([]float64, cfg.Reps)
	for i := range withFanout {
		withFanout[i] = sum[i] + fanout[i]
	}
	r.addDetail("ledger.analyzer_sum_ns_per_event", "ns/event", sum...)
	r.addDetail("ledger.sum_plus_fanout_ns_per_event", "ns/event", withFanout...)
	r.addCheck("ledger_self_check", ledgerSelfCheck(last))
	return nil
}

// ledgerSelfCheck verifies that every analyzer and machine model run
// alone computes exactly what it computes inside the full stack: the
// same vector coordinates, the same EV56/EV67 IPC.
func ledgerSelfCheck(obs map[string][]trace.Observer) error {
	covered := 0
	for _, a := range analyzers {
		covered += a.hi - a.lo + 1
	}
	if covered != micachar.NumChars {
		return fmt.Errorf("analyzer ranges cover %d of %d characteristics", covered, micachar.NumChars)
	}
	for t, p := range obs["profiler"] {
		full := p.(*micachar.Profiler).Vector()
		for _, a := range analyzers {
			var v micachar.Vector
			obs[a.name][t].(filler).Fill(&v)
			for c := a.lo; c <= a.hi; c++ {
				if v[c] != full[c] {
					return fmt.Errorf("trace %d: %s alone gives %s = %v, the profiler %v", t, a.name, micachar.CharName(c), v[c], full[c])
				}
			}
		}
		hpc := obs["hpc"][t].(*uarch.HPCProfiler).Vector()
		if ipc := obs["ev56"][t].(*uarch.EV56).IPC(); ipc != hpc[uarch.HPCIPCEV56] {
			return fmt.Errorf("trace %d: EV56 alone gives IPC %v, inside the HPC profiler %v", t, ipc, hpc[uarch.HPCIPCEV56])
		}
		if ipc := obs["ev67"][t].(*uarch.EV67).IPC(); ipc != hpc[uarch.HPCIPCEV67] {
			return fmt.Errorf("trace %d: EV67 alone gives IPC %v, inside the HPC profiler %v", t, ipc, hpc[uarch.HPCIPCEV67])
		}
	}
	return nil
}
