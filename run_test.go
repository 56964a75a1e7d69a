package mica

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestRunProgressOncePerBenchmark tables the four analyses, each in
// memory and through a store, on a fresh build: Progress is called
// exactly once per benchmark, done counts 1..n in call order, and the
// report sets exactly the result field the request selects (plus the
// build stats for store runs).
func TestRunProgressOncePerBenchmark(t *testing.T) {
	bs := storeBenchmarks(t, "MiBench/sha/large", "CommBench/drr/drr")
	phase := PhaseConfig{IntervalLen: 500, MaxIntervals: 4, MaxK: 2, Seed: 1}
	for _, reduced := range []bool{false, true} {
		for _, joint := range []bool{false, true} {
			for _, inStore := range []bool{false, true} {
				name := fmt.Sprintf("reduced=%v/joint=%v/store=%v", reduced, joint, inStore)
				t.Run(name, func(t *testing.T) {
					var mu sync.Mutex
					var dones []int
					var names []string
					progress := func(done, total int, name string) {
						mu.Lock()
						defer mu.Unlock()
						if total != len(bs) {
							t.Errorf("progress total = %d, want %d", total, len(bs))
						}
						dones = append(dones, done)
						names = append(names, name)
					}
					req := Request{Benchmarks: bs, Joint: joint}
					if reduced {
						req.Reduced = &ReducedPipelineConfig{Reduced: ReducedConfig{Phase: phase}, Workers: 2, Progress: progress}
					} else {
						req.Phases = &PhasePipelineConfig{Phase: phase, Workers: 2, Progress: progress}
					}
					if inStore {
						req.Store.Dir = filepath.Join(t.TempDir(), "store")
					}
					rep, err := Run(context.Background(), req)
					if err != nil {
						t.Fatal(err)
					}

					if want := []int{1, 2}; !reflect.DeepEqual(dones, want) {
						t.Errorf("progress done sequence %v, want %v", dones, want)
					}
					seen := make(map[string]int)
					for _, n := range names {
						seen[n]++
					}
					for _, b := range bs {
						if seen[b.Name()] != 1 {
							t.Errorf("%s reported %d times, want once", b.Name(), seen[b.Name()])
						}
					}

					set := map[string]bool{
						"Phases":       rep.Phases != nil,
						"Joint":        rep.Joint != nil,
						"Reduced":      rep.Reduced != nil,
						"JointReduced": rep.JointReduced != nil,
					}
					want := map[bool]map[bool]string{false: {false: "Phases", true: "Joint"}, true: {false: "Reduced", true: "JointReduced"}}[reduced][joint]
					for field, ok := range set {
						if ok != (field == want) {
							t.Errorf("report field %s set = %v, want only %s", field, ok, want)
						}
					}
					if (rep.Store != nil) != inStore {
						t.Errorf("report store stats set = %v, want %v", rep.Store != nil, inStore)
					}
				})
			}
		}
	}
}

// TestRunRejectsContradictoryRequests: a request must pick exactly one
// pipeline, and store options only make sense with a store directory.
func TestRunRejectsContradictoryRequests(t *testing.T) {
	bs := storeBenchmarks(t, "MiBench/sha/large")
	pcfg := &PhasePipelineConfig{Phase: storeTestConfig}
	rcfg := &ReducedPipelineConfig{Reduced: ReducedConfig{Phase: storeTestConfig}}
	cases := []struct {
		name string
		req  Request
		want string
	}{
		{"no pipeline", Request{Benchmarks: bs}, "exactly one of Phases and Reduced"},
		{"both pipelines", Request{Benchmarks: bs, Phases: pcfg, Reduced: rcfg}, "exactly one of Phases and Reduced"},
		{"incremental without dir", Request{Benchmarks: bs, Phases: pcfg, Store: StoreOptions{Incremental: true}}, "need Store.Dir"},
		{"warm start without dir", Request{Benchmarks: bs, Joint: true, Reduced: rcfg, Store: StoreOptions{WarmStart: true}}, "need Store.Dir"},
	}
	for _, tc := range cases {
		rep, err := Run(context.Background(), tc.req)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
		if rep != nil {
			t.Errorf("%s: rejected request returned a report", tc.name)
		}
	}
}

// TestRunRejectsRepeatedBenchmarks: a benchmark listed twice is
// rejected before any work, by every analysis in memory and through a
// store, and by the store-build engine itself. Shards are keyed by
// benchmark name, so the two entries would collide. The error names
// the benchmark, nothing is characterized and no store directory is
// created.
func TestRunRejectsRepeatedBenchmarks(t *testing.T) {
	bs := storeBenchmarks(t, "MiBench/sha/large", "CommBench/drr/drr", "MiBench/sha/large")
	phase := PhaseConfig{IntervalLen: 500, MaxIntervals: 4, MaxK: 2, Seed: 1}
	for _, reduced := range []bool{false, true} {
		for _, joint := range []bool{false, true} {
			for _, inStore := range []bool{false, true} {
				name := fmt.Sprintf("reduced=%v/joint=%v/store=%v", reduced, joint, inStore)
				t.Run(name, func(t *testing.T) {
					calls := 0
					progress := func(int, int, string) { calls++ }
					req := Request{Benchmarks: bs, Joint: joint}
					if reduced {
						req.Reduced = &ReducedPipelineConfig{Reduced: ReducedConfig{Phase: phase}, Workers: 1, Progress: progress}
					} else {
						req.Phases = &PhasePipelineConfig{Phase: phase, Workers: 1, Progress: progress}
					}
					dir := filepath.Join(t.TempDir(), "store")
					if inStore {
						req.Store.Dir = dir
					}
					rep, err := Run(context.Background(), req)
					checkRepeatRejected(t, err, calls, dir)
					if rep != nil {
						t.Error("rejected request returned a report")
					}
				})
			}
		}
	}
	t.Run("CharacterizeToStoreCtx", func(t *testing.T) {
		calls := 0
		dir := filepath.Join(t.TempDir(), "store")
		st, stats, err := CharacterizeToStoreCtx(context.Background(), bs,
			PhasePipelineConfig{Phase: phase, Workers: 1, Progress: func(int, int, string) { calls++ }},
			StoreOptions{Dir: dir})
		checkRepeatRejected(t, err, calls, dir)
		if st != nil || stats != nil {
			t.Error("rejected build returned a store or stats")
		}
	})
}

// checkRepeatRejected asserts the repeated-benchmark rejection: an
// error naming the benchmark, no characterization, no store directory.
func checkRepeatRejected(t *testing.T, err error, progressCalls int, dir string) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), "MiBench/sha/large") {
		t.Fatalf("err = %v, want one naming the repeated benchmark", err)
	}
	if progressCalls != 0 {
		t.Errorf("%d benchmarks characterized before the rejection", progressCalls)
	}
	if _, err := os.Stat(dir); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("store directory %s exists after the rejection (stat: %v)", dir, err)
	}
}
