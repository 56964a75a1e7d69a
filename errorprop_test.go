package mica

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"mica/internal/faults"
	micachar "mica/internal/mica"
	"mica/internal/pool"
)

// epBenchmarks returns two working benchmarks around one that cannot
// instantiate (unknown kernel) — the standard fixture for the error
// propagation contract: the bad one is named, the good ones complete.
func epBenchmarks(t *testing.T) (bs []Benchmark, bad Benchmark) {
	t.Helper()
	good1, err := BenchmarkByName("MiBench/sha/large")
	if err != nil {
		t.Fatal(err)
	}
	good2, err := BenchmarkByName("CommBench/drr/drr")
	if err != nil {
		t.Fatal(err)
	}
	bad = Benchmark{Suite: "Synthetic", Program: "broken", Input: "bad", Kernel: "no-such-kernel", Size: 64}
	return []Benchmark{good1, bad, good2}, bad
}

func epPhaseCfg() PhasePipelineConfig {
	return PhasePipelineConfig{
		Phase:   PhaseConfig{IntervalLen: 500, MaxIntervals: 4, MaxK: 2, Seed: 1},
		Workers: 2,
	}
}

// TestPipelineErrorsNameOffendingBenchmark is the table-driven
// contract test over the multi-benchmark entry points and the Run
// paths: a benchmark that fails mid-pipeline yields an error that
// names it exactly once (with the pool's item attribution preserved in
// the chain), and the paths documented to return partial results —
// every per-benchmark request, in memory and through a store — deliver
// the other benchmarks' results complete. Case names are stable test
// IDs.
func TestPipelineErrorsNameOffendingBenchmark(t *testing.T) {
	bs, bad := epBenchmarks(t)
	pcfg := epPhaseCfg()
	rcfg := ReducedPipelineConfig{Reduced: ReducedConfig{Phase: pcfg.Phase}, Workers: 2}

	cases := []struct {
		name string
		// run executes the variant and reports which of the three
		// benchmarks produced a usable result (nil when the variant
		// documents no partial results).
		run func(ctx context.Context) (partial []bool, err error)
	}{
		{"ProfileBenchmarksCtx", func(ctx context.Context) ([]bool, error) {
			cfg := DefaultConfig()
			cfg.InstBudget = 2_000
			cfg.SkipHPC = true
			res, err := ProfileBenchmarksCtx(ctx, bs, cfg)
			if len(res) != len(bs) {
				t.Fatalf("got %d results for %d benchmarks", len(res), len(bs))
			}
			return []bool{res[0].Insts > 0, res[1].Insts > 0, res[2].Insts > 0}, err
		}},
		{"AnalyzePhasesBenchmarksCtx", func(ctx context.Context) ([]bool, error) {
			rep, err := Run(ctx, Request{Benchmarks: bs, Phases: &pcfg})
			res := rep.Phases
			if len(res) != len(bs) {
				t.Fatalf("got %d results for %d benchmarks", len(res), len(bs))
			}
			return []bool{res[0].Result != nil, res[1].Result != nil, res[2].Result != nil}, err
		}},
		{"AnalyzeReducedBenchmarksCtx", func(ctx context.Context) ([]bool, error) {
			rep, err := Run(ctx, Request{Benchmarks: bs, Reduced: &rcfg})
			res := rep.Reduced
			if len(res) != len(bs) {
				t.Fatalf("got %d results for %d benchmarks", len(res), len(bs))
			}
			return []bool{res[0].Result != nil, res[1].Result != nil, res[2].Result != nil}, err
		}},
		{"AnalyzePhasesJointCtx", func(ctx context.Context) ([]bool, error) {
			rep, err := Run(ctx, Request{Benchmarks: bs, Joint: true, Phases: &pcfg})
			if rep != nil {
				t.Error("joint result must be nil when any benchmark fails (a shrunken vocabulary would be silently wrong)")
			}
			return nil, err
		}},
		{"AnalyzeReducedJointCtx", func(ctx context.Context) ([]bool, error) {
			rep, err := Run(ctx, Request{Benchmarks: bs, Joint: true, Reduced: &rcfg})
			if rep != nil {
				t.Error("joint reduced result must be nil when any benchmark fails")
			}
			return nil, err
		}},
		{"AnalyzePhasesStoreCtx", func(ctx context.Context) ([]bool, error) {
			rep, err := Run(ctx, Request{Benchmarks: bs, Phases: &pcfg, Store: StoreOptions{Dir: t.TempDir()}})
			res := rep.Phases
			if len(res) != len(bs) || rep.Store == nil {
				t.Fatalf("got %d results for %d benchmarks, store stats %v", len(res), len(bs), rep.Store)
			}
			return []bool{res[0].Result != nil, res[1].Result != nil, res[2].Result != nil}, err
		}},
		{"AnalyzeReducedStoreCtx", func(ctx context.Context) ([]bool, error) {
			res, stats, err := AnalyzeReducedStoreCtx(ctx, bs, rcfg, StoreOptions{Dir: t.TempDir()})
			if len(res) != len(bs) || stats == nil {
				t.Fatalf("got %d results for %d benchmarks, store stats %v", len(res), len(bs), stats)
			}
			return []bool{res[0].Result != nil, res[1].Result != nil, res[2].Result != nil}, err
		}},
		{"CharacterizeToStoreCtx", func(ctx context.Context) ([]bool, error) {
			st, stats, err := CharacterizeToStoreCtx(ctx, bs, pcfg, StoreOptions{Dir: t.TempDir()})
			if st != nil {
				defer st.Close()
			}
			if len(stats.Failed) != 1 || stats.Failed[0] != bad.Name() {
				t.Errorf("stats.Failed = %v, want exactly %q", stats.Failed, bad.Name())
			}
			done := make(map[string]bool, len(stats.Characterized))
			for _, n := range stats.Characterized {
				done[n] = true
			}
			return []bool{done[bs[0].Name()], done[bs[1].Name()], done[bs[2].Name()]}, err
		}},
		{"AnalyzePhasesJointStoreCtx", func(ctx context.Context) ([]bool, error) {
			rep, err := Run(ctx, Request{Benchmarks: bs, Joint: true, Phases: &pcfg, Store: StoreOptions{Dir: t.TempDir()}})
			if rep.Joint != nil {
				t.Error("store-backed joint result must be nil when any benchmark fails")
			}
			stats := rep.Store
			if len(stats.Failed) != 1 || stats.Failed[0] != bad.Name() {
				t.Errorf("stats.Failed = %v, want exactly %q", stats.Failed, bad.Name())
			}
			return nil, err
		}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			partial, err := tc.run(context.Background())
			if err == nil {
				t.Fatal("bad benchmark did not surface as an error")
			}
			named := 0
			for _, line := range strings.Split(err.Error(), "\n") {
				if strings.Contains(line, bad.Name()) {
					named++
				}
			}
			if named != 1 {
				t.Errorf("%d error lines name the offending benchmark %q, want one:\n%v", named, bad.Name(), err)
			}
			var ie *pool.ItemError
			if !errors.As(err, &ie) {
				t.Errorf("pool item attribution missing from error chain:\n%v", err)
			} else if ie.Item != 1 {
				t.Errorf("attributed to item %d, want 1", ie.Item)
			}
			if partial != nil {
				want := []bool{true, false, true}
				for i := range want {
					if partial[i] != want[i] {
						t.Errorf("benchmark %d usable = %v, want %v (one failure must not stop the others)",
							i, partial[i], want[i])
					}
				}
			}
		})
	}
}

// TestPipelinePanicIsolation: a panicking benchmark is recovered on
// its worker, converted into an error naming it (with the panic value
// and stack preserved), and the other benchmarks complete.
func TestPipelinePanicIsolation(t *testing.T) {
	var bs []Benchmark
	for _, n := range []string{"MiBench/sha/large", "CommBench/drr/drr", "SPEC2000/gzip/program"} {
		b, err := BenchmarkByName(n)
		if err != nil {
			t.Fatal(err)
		}
		bs = append(bs, b)
	}
	cfg := epPhaseCfg()
	cfg.Workers = 1 // the keyless Nth-occurrence address below counts pool items globally

	// The very first pool item dispatched is pipeline item 0 (inner
	// clustering sweeps only run later, inside fn), so this address
	// panics bs[0]'s worker before its analysis starts.
	disarm := faults.Arm(faults.Address{Point: faults.PoolItem, Nth: 0}, faults.Crash)
	rep, err := Run(context.Background(), Request{Benchmarks: bs, Phases: &cfg})
	res := rep.Phases
	if fired := disarm(); fired != 1 {
		t.Fatalf("crash fired %d times, want 1", fired)
	}
	if err == nil {
		t.Fatal("panicking benchmark did not surface as an error")
	}
	if !strings.Contains(err.Error(), bs[0].Name()) {
		t.Errorf("error does not name the panicking benchmark:\n%v", err)
	}
	var pe *pool.PanicError
	if !errors.As(err, &pe) {
		t.Errorf("panic value/stack missing from error chain:\n%v", err)
	} else if !strings.Contains(pe.Error(), "injected crash") {
		t.Errorf("recovered panic value lost: %v", pe.Value)
	}
	if res[0].Result != nil {
		t.Error("panicked benchmark has a result")
	}
	if res[1].Result == nil || res[2].Result == nil {
		t.Error("one panic stopped the other benchmarks")
	}
}

// TestPipelineCancellationIsPrompt: a pre-cancelled context returns
// immediately with ctx.Err in the chain and no benchmark dispatched.
func TestPipelineCancellationIsPrompt(t *testing.T) {
	bs, _ := epBenchmarks(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	pcfg := epPhaseCfg()
	rep, err := Run(ctx, Request{Benchmarks: bs, Phases: &pcfg})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in the chain", err)
	}
	for i, r := range rep.Phases {
		if r.Result != nil {
			t.Errorf("benchmark %d ran despite pre-cancelled context", i)
		}
	}

	if _, err := ProfileBenchmarksCtx(ctx, bs, DefaultConfig()); !errors.Is(err, context.Canceled) {
		t.Errorf("ProfileBenchmarksCtx err = %v, want context.Canceled", err)
	}
	rcfg := ReducedPipelineConfig{Reduced: ReducedConfig{Phase: pcfg.Phase}}
	if _, err := Run(ctx, Request{Benchmarks: bs, Reduced: &rcfg}); !errors.Is(err, context.Canceled) {
		t.Errorf("reduced Run err = %v, want context.Canceled", err)
	}
}

// TestPPMOrderOutOfRangeIsError pins the PPM order bound at every
// public entry point that builds a profiler: an order outside
// 0..MaxPPMOrder is an error naming the accepted range, never a panic
// from the PPM constructor, and no store is created for it.
func TestPPMOrderOutOfRangeIsError(t *testing.T) {
	sha, err := BenchmarkByName("MiBench/sha/large")
	if err != nil {
		t.Fatal(err)
	}
	bs := []Benchmark{sha}
	entries := []struct {
		name string
		run  func(order int) error
	}{
		{"Profile", func(order int) error {
			_, err := Profile(sha, Config{InstBudget: 2_000, PPMOrder: order})
			return err
		}},
		{"ProfileBenchmarksCtx", func(order int) error {
			_, err := ProfileBenchmarksCtx(context.Background(), bs, Config{InstBudget: 2_000, PPMOrder: order})
			return err
		}},
		{"ProfileExact", func(order int) error {
			cfg := ReducedConfig{Phase: epPhaseCfg().Phase}
			cfg.FullOptions.PPMOrder = order
			_, err := ProfileExact(sha, cfg)
			return err
		}},
		{"Run/phases", func(order int) error {
			cfg := epPhaseCfg()
			cfg.Phase.Options.PPMOrder = order
			_, err := Run(context.Background(), Request{Benchmarks: bs, Phases: &cfg})
			return err
		}},
		{"Run/reduced/cheap", func(order int) error {
			cfg := ReducedPipelineConfig{Reduced: ReducedConfig{Phase: epPhaseCfg().Phase}}
			cfg.Reduced.Phase.Options.PPMOrder = order
			_, err := Run(context.Background(), Request{Benchmarks: bs, Reduced: &cfg})
			return err
		}},
		{"Run/reduced/full/joint/store", func(order int) error {
			cfg := ReducedPipelineConfig{Reduced: ReducedConfig{Phase: epPhaseCfg().Phase}}
			cfg.Reduced.FullOptions.PPMOrder = order
			_, err := Run(context.Background(), Request{Benchmarks: bs, Reduced: &cfg, Joint: true,
				Store: StoreOptions{Dir: filepath.Join(t.TempDir(), "s")}})
			return err
		}},
		{"CharacterizeToStoreCtx", func(order int) error {
			cfg := epPhaseCfg()
			cfg.Phase.Options.PPMOrder = order
			st, _, err := CharacterizeToStoreCtx(context.Background(), bs, cfg, StoreOptions{Dir: filepath.Join(t.TempDir(), "s")})
			if st != nil {
				st.Close()
				t.Error("a store was created for an invalid order")
			}
			return err
		}},
		{"CharacterizeReducedToStoreCtx", func(order int) error {
			cfg := ReducedPipelineConfig{Reduced: ReducedConfig{Phase: epPhaseCfg().Phase}}
			cfg.Reduced.Phase.Options.PPMOrder = order
			st, _, err := CharacterizeReducedToStoreCtx(context.Background(), bs, cfg, StoreOptions{Dir: filepath.Join(t.TempDir(), "s")})
			if st != nil {
				st.Close()
				t.Error("a store was created for an invalid order")
			}
			return err
		}},
	}
	want := fmt.Sprintf("out of range 0..%d", micachar.MaxPPMOrder)
	for _, e := range entries {
		for _, order := range []int{-1, micachar.MaxPPMOrder + 1, 33} {
			t.Run(fmt.Sprintf("%s/order%d", e.name, order), func(t *testing.T) {
				err := e.run(order)
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("order %d: err = %v, want one naming %q", order, err, want)
				}
			})
		}
	}
}
