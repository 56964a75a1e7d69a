package main

import (
	"context"
	"io"
	"testing"
	"time"

	"mica"
)

// tinyHarness is a harness over the enclosing checkout at a
// non-default seed, so no digest is compared.
func tinyHarness(t *testing.T, traced bool) *harness {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	return &harness{root: root, seed: 7, seconds: 1, traced: traced, stdout: io.Discard, stderr: io.Discard}
}

// inProcess runs every measurement slice in the test process.
func inProcess(h *harness) spawner {
	return func(ctx context.Context, w batchWorkload, i, ops int) (*sliceResult, error) {
		s, err := measureSlice(ctx, h, w, i, ops)
		if err == nil {
			s.PeakMB, err = peakRSSMB("self")
		}
		return s, err
	}
}

func benchmarks(t *testing.T, names ...string) []mica.Benchmark {
	t.Helper()
	bs, err := benchmarksByName(names)
	if err != nil {
		t.Fatal(err)
	}
	return bs
}

// finish runs what runWorkload does after the workload itself and
// fails the test unless r passed its checks and reports every metric
// of its mode.
func finish(t *testing.T, r *result, spans []span, ledger ledgerConfig) {
	t.Helper()
	if r.Traced {
		r.metric("host.ref_ms", 1)
		if err := runLedger(context.Background(), tinyHarness(t, true), r, ledger); err != nil {
			t.Fatal(err)
		}
		addSpanTimes(r, spans)
	}
	for _, c := range r.failedChecks() {
		t.Errorf("%s: check %s failed: %s", r.Workload, c.Name, c.Detail)
	}
	if err := completeMetrics(r); err != nil {
		t.Errorf("%s (traced %v): %v", r.Workload, r.Traced, err)
	}
	if r.Attempted < 1 {
		t.Errorf("%s: %d operations attempted", r.Workload, r.Attempted)
	}
	if _, err := finalLine([]*result{r}); err != nil {
		t.Error(err)
	}
}

// TestWorkloadsSmoke runs every workload at a tiny size through the
// same code the command runs, untraced and traced.
func TestWorkloadsSmoke(t *testing.T) {
	ctx := context.Background()
	an := mica.DefaultAnalysisConfig()
	an.GASeed, an.ClusterSeed = 7, 7
	golden := []string{"SPEC2000/gzip/program", "SPEC2000/mcf/ref", "MiBench/sha/large", "MiBench/FFT/fft-large",
		"MediaBench/mpeg2/encode", "SPEC2000/crafty/ref"}
	batch := map[string]batchWorkload{
		"paper": &paperWorkload{Benchmarks: benchmarks(t, golden...),
			Profile: mica.Config{InstBudget: 20_000, Workers: maxProcs}, Analysis: an, Nominal: 1},
		"reduced": &reducedWorkload{Benchmarks: benchmarks(t, golden[:2]...), Nominal: 1,
			Config: mica.ReducedPipelineConfig{Workers: maxProcs, Reduced: mica.ReducedConfig{
				Phase: mica.PhaseConfig{IntervalLen: 1000, MaxIntervals: 20, MaxK: 3, Seed: 7}}}},
		"joint": &jointWorkload{Benchmarks: benchmarks(t, golden[:4]...), Nominal: 1,
			Config: mica.PhasePipelineConfig{Workers: maxProcs,
				Phase: mica.PhaseConfig{IntervalLen: 500, MaxIntervals: 20, MaxK: 3, Seed: 7}}},
	}
	ledger := ledgerConfig{Benchmarks: golden[:2], Budget: 5_000, Reps: 2}
	for _, traced := range []bool{false, true} {
		h := tinyHarness(t, traced)
		for _, name := range []string{"paper", "reduced", "joint"} {
			r := newResult(h, name)
			spans, err := runBatch(ctx, h, r, name, batch[name], inProcess(h))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			finish(t, r, spans, ledger)
		}
	}

	cfg := serveConfig{
		Benchmarks: golden[:4], Interval: 1000, Intervals: 10, MaxK: 3, Slices: 2,
		ReadRate: 200, JobRate: 6, UploadRate: 2, RepeatEvery: 3,
		Mixed: time.Second, Closed: 200 * time.Millisecond, Poll: 5 * time.Millisecond,
		CheckEvery: 10, CheckJobs: 2, Drain: 30 * time.Second,
	}
	for _, traced := range []bool{false, true} {
		h := tinyHarness(t, traced)
		r := newResult(h, "serve")
		spans, err := runServe(ctx, h, r, cfg)
		if err != nil {
			t.Fatal(err)
		}
		finish(t, r, spans, ledgerConfig{Benchmarks: golden[:1], Budget: 2_000, Reps: 1})
	}
}
