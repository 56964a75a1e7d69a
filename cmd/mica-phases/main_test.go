package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mica"
)

// capture redirects stdout during f and returns what was printed.
func capture(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r)
		done <- buf.String()
	}()
	ferr := f()
	w.Close()
	os.Stdout = old
	return <-done, ferr
}

func TestRunSingleBenchmark(t *testing.T) {
	cfg := mica.PhaseConfig{IntervalLen: 2_000, MaxIntervals: 10, MaxK: 4, Seed: 1}
	out, err := capture(t, func() error {
		return run(context.Background(), "SPEC2000/twolf/ref", "", false, false, mica.StoreOptions{}, cfg, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"10 intervals of 2000 instructions",
		"phase timeline",
		"representative simulation points",
		"reconstruction error",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunSubsetPipeline(t *testing.T) {
	// The -all path over a registry subset is covered by the library
	// tests; here exercise the pipeline rendering through a tiny -all
	// run would profile 122 benchmarks, so only validate flag errors.
	if _, err := capture(t, func() error {
		return run(context.Background(), "", "", false, false, mica.StoreOptions{}, mica.PhaseConfig{}, 0)
	}); err == nil {
		t.Error("missing mode accepted")
	}
	if _, err := capture(t, func() error {
		return run(context.Background(), "no/such/bench", "", false, false, mica.StoreOptions{}, mica.PhaseConfig{}, 0)
	}); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := capture(t, func() error {
		return run(context.Background(), "MiBench/sha/large,no/such/bench", "", false, true, mica.StoreOptions{}, mica.PhaseConfig{}, 0)
	}); err == nil {
		t.Error("unknown benchmark in joint list accepted")
	}
}

// TestRunJointSubset exercises the -joint mode over an explicit
// benchmark list: the shared vocabulary report must name every
// benchmark, print an occupancy row per benchmark and list
// cross-benchmark representatives.
func TestRunJointSubset(t *testing.T) {
	cfg := mica.PhaseConfig{IntervalLen: 1_000, MaxIntervals: 8, MaxK: 3, Seed: 5}
	names := "MiBench/sha/large, SPEC2000/gzip/program"
	out, err := capture(t, func() error {
		return run(context.Background(), names, "", false, true, mica.StoreOptions{}, cfg, 2)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"joint phase space: 2 benchmarks, 16 intervals",
		"per-benchmark occupancy of the shared phases",
		"cross-benchmark representative intervals",
		"MiBench/sha/large",
		"SPEC2000/gzip/program",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("joint output missing %q:\n%s", want, out)
		}
	}
}

func TestRunAllRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("analyzes all 122 benchmarks")
	}
	cfg := mica.PhaseConfig{IntervalLen: 1_000, MaxIntervals: 5, MaxK: 3, Seed: 1}
	out, err := capture(t, func() error { return run(context.Background(), "", "", true, false, mica.StoreOptions{}, cfg, 4) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"SPEC2000/mcf/ref", "BioInfoMark/blast/protein", "recon err"} {
		if !strings.Contains(out, want) {
			t.Errorf("registry output missing %q", want)
		}
	}
	if lines := strings.Count(out, "\n"); lines < 122 {
		t.Errorf("registry table too short: %d lines", lines)
	}
}

// TestRunSingleBenchmarkStore: -store drives the single-benchmark mode
// too, an incremental rerun reuses the shard and renders the same
// report, and a store whose manifest names the retired quant8
// encoding is refused, not rebuilt over.
func TestRunSingleBenchmarkStore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	cfg := mica.PhaseConfig{IntervalLen: 2_000, MaxIntervals: 6, MaxK: 3, Seed: 1}
	first, err := capture(t, func() error {
		return run(context.Background(), "MiBench/sha/large", "", false, false, mica.StoreOptions{Dir: dir}, cfg, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(first, "1 shards characterized, 0 reused") {
		t.Fatalf("first run did not characterize the shard:\n%s", first)
	}
	second, err := capture(t, func() error {
		return run(context.Background(), "MiBench/sha/large", "", false, false, mica.StoreOptions{Dir: dir, Incremental: true}, cfg, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(second, "0 shards characterized, 1 reused") {
		t.Errorf("incremental rerun did not reuse the shard:\n%s", second)
	}
	tail := second[strings.Index(second, "MiBench/sha/large: "):]
	if !strings.HasSuffix(first, tail) {
		t.Error("store-backed rerun renders a different report")
	}

	manifest := filepath.Join(dir, "manifest.json")
	raw, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	quant8 := strings.Replace(string(raw), `"encoding": "float32"`, `"encoding": "quant8"`, 1)
	if err := os.WriteFile(manifest, []byte(quant8), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = capture(t, func() error {
		return run(context.Background(), "MiBench/sha/large", "", false, false, mica.StoreOptions{Dir: dir, Incremental: true}, cfg, 0)
	})
	if err == nil || !strings.Contains(err.Error(), "not a usable interval-vector store") || !strings.Contains(err.Error(), manifest) {
		t.Fatalf("quant8 store: error %v, want it refused by name", err)
	}
}

// TestRunAllRegistryStore runs the registry pipeline through the store,
// then reruns the same command with -incremental: the rerun
// characterizes nothing, reuses every shard and renders the same table.
func TestRunAllRegistryStore(t *testing.T) {
	if testing.Short() {
		t.Skip("analyzes all 122 benchmarks")
	}
	dir := filepath.Join(t.TempDir(), "store")
	cfg := mica.PhaseConfig{IntervalLen: 500, MaxIntervals: 3, MaxK: 2, Seed: 1}
	first, err := capture(t, func() error {
		return run(context.Background(), "", "", true, false, mica.StoreOptions{Dir: dir}, cfg, 4)
	})
	if err != nil {
		t.Fatal(err)
	}
	n := len(mica.Benchmarks())
	if !strings.Contains(first, fmt.Sprintf("%d shards characterized, 0 reused", n)) {
		t.Fatalf("first run did not characterize the registry:\n%s", first)
	}
	second, err := capture(t, func() error {
		return run(context.Background(), "", "", true, false, mica.StoreOptions{Dir: dir, Incremental: true}, cfg, 4)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(second, fmt.Sprintf("0 shards characterized, %d reused", n)) {
		t.Errorf("registry rerun did not reuse every shard:\n%s", second)
	}
	// The table itself (everything from its header on) must match.
	tail := second[strings.Index(second, "\nbenchmark"):]
	if !strings.HasSuffix(first, tail) {
		t.Error("store-backed registry rerun renders a different table")
	}
}

func TestRunReducedSingleBenchmark(t *testing.T) {
	rcfg := mica.ReducedConfig{Phase: mica.PhaseConfig{IntervalLen: 2_000, MaxIntervals: 10, MaxK: 4, Seed: 1}}
	out, err := capture(t, func() error {
		return runReduced(context.Background(), "SPEC2000/twolf/ref", false, false, rcfg, mica.StoreOptions{}, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"intervals measured in full", "extrapolated whole-run profile", "cost: cheap pass observed"} {
		if !strings.Contains(out, want) {
			t.Errorf("reduced output missing %q:\n%s", want, out)
		}
	}
}

func TestRunReducedSubsetPipeline(t *testing.T) {
	rcfg := mica.ReducedConfig{Phase: mica.PhaseConfig{IntervalLen: 2_000, MaxIntervals: 10, MaxK: 4, Seed: 1}}
	out, err := capture(t, func() error {
		return runReduced(context.Background(), "MiBench/sha/large,SPEC2000/gzip/program", false, false, rcfg, mica.StoreOptions{}, 2)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"MiBench/sha/large", "SPEC2000/gzip/program", "skipped insts"} {
		if !strings.Contains(out, want) {
			t.Errorf("reduced pipeline output missing %q:\n%s", want, out)
		}
	}
}

// TestRunJointStore exercises -joint -store end to end: the first run
// characterizes every shard, the incremental rerun reuses them all,
// and both render the same shared-vocabulary report.
func TestRunJointStore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	cfg := mica.PhaseConfig{IntervalLen: 1_000, MaxIntervals: 8, MaxK: 3, Seed: 5}
	names := "MiBench/sha/large, SPEC2000/gzip/program"
	sopt := mica.StoreOptions{Dir: dir, Incremental: true}
	first, err := capture(t, func() error { return run(context.Background(), names, "", false, true, sopt, cfg, 2) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"2 shards characterized, 0 reused",
		"joint phase space: 2 benchmarks, 16 intervals",
		"per-benchmark occupancy of the shared phases",
	} {
		if !strings.Contains(first, want) {
			t.Errorf("store run output missing %q:\n%s", want, first)
		}
	}
	second, err := capture(t, func() error { return run(context.Background(), names, "", false, true, sopt, cfg, 2) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(second, "0 shards characterized, 2 reused") {
		t.Errorf("incremental rerun did not reuse shards:\n%s", second)
	}
	// The vocabulary report (everything after the store banner) matches.
	tail := second[strings.Index(second, "joint phase space"):]
	if !strings.HasSuffix(first, tail) {
		t.Error("store-backed rerun renders a different vocabulary")
	}
}

// TestValidateFlags tables the flag matrix: every supported
// combination is accepted and every inconsistent one is rejected with
// an error naming the fix.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		f       cliFlags
		wantErr string // substring; empty = accepted
	}{
		{"single bench", cliFlags{bench: "a/b/c"}, ""},
		{"all", cliFlags{all: true}, ""},
		{"joint", cliFlags{joint: true}, ""},
		{"reduced bench", cliFlags{reduced: true, bench: "a/b/c"}, ""},
		{"reduced all", cliFlags{reduced: true, all: true}, ""},
		{"reduced joint", cliFlags{reduced: true, joint: true}, ""},
		{"reduced sample reps skiphpc", cliFlags{reduced: true, bench: "a/b/c", sample: 0.5, reps: 7, skipHPC: true}, ""},
		{"bench store", cliFlags{bench: "a/b/c", storeDir: "d"}, ""},
		{"all store incremental", cliFlags{all: true, storeDir: "d", incremental: true}, ""},
		{"joint store", cliFlags{joint: true, storeDir: "d"}, ""},
		{"joint store incremental", cliFlags{joint: true, storeDir: "d", incremental: true}, ""},
		{"joint store warm", cliFlags{joint: true, storeDir: "d", warm: true}, ""},
		{"reduced store", cliFlags{reduced: true, all: true, storeDir: "d"}, ""},
		{"reduced store bench", cliFlags{reduced: true, bench: "a/b/c", storeDir: "d"}, ""},
		{"reduced joint store", cliFlags{reduced: true, joint: true, storeDir: "d"}, ""},
		{"reduced joint store warm", cliFlags{reduced: true, joint: true, storeDir: "d", warm: true, incremental: true}, ""},
		{"fsck", cliFlags{fsck: true, storeDir: "d"}, ""},
		{"trace", cliFlags{trace: "x.trc"}, ""},
		{"trace with display name", cliFlags{trace: "x.trc", bench: "a/b/c"}, ""},
		{"fsck repair", cliFlags{fsck: true, repair: true, storeDir: "d"}, ""},

		{"incremental without store", cliFlags{all: true, incremental: true}, "only apply to -store"},
		{"warm without store", cliFlags{joint: true, warm: true}, "only apply to -store"},
		{"sample without reduced", cliFlags{bench: "a/b/c", sample: 0.5}, "only apply to -reduced"},
		{"reps without reduced", cliFlags{all: true, reps: 7}, "only apply to -reduced"},
		{"skiphpc without reduced", cliFlags{joint: true, skipHPC: true}, "only apply to -reduced"},
		{"warm without joint", cliFlags{reduced: true, all: true, storeDir: "d", warm: true}, "combine it with -joint"},
		{"fsck without store", cliFlags{fsck: true}, "pass -store DIR"},
		{"repair without fsck", cliFlags{repair: true, storeDir: "d"}, "pass -fsck -repair"},
		{"trace with all", cliFlags{trace: "x.trc", all: true}, "-trace"},
		{"trace with joint", cliFlags{trace: "x.trc", joint: true}, "-trace"},
		{"trace with reduced", cliFlags{trace: "x.trc", reduced: true}, "-trace"},
		{"trace with store", cliFlags{trace: "x.trc", storeDir: "d"}, "drop -store"},
	}
	for _, tc := range cases {
		err := validateFlags(tc.f)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.wantErr != "" && err == nil:
			t.Errorf("%s: accepted, want error containing %q", tc.name, tc.wantErr)
		case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestRunReducedStore exercises -reduced -store end to end: the first
// run characterizes every shard and reports the shard reads, the
// incremental rerun reuses the cheap pass entirely and renders the
// same table.
func TestRunReducedStore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	rcfg := mica.ReducedConfig{Phase: mica.PhaseConfig{IntervalLen: 2_000, MaxIntervals: 10, MaxK: 4, Seed: 1}}
	sopt := mica.StoreOptions{Dir: dir, Incremental: true}
	names := "MiBench/sha/large,SPEC2000/gzip/program"
	first, err := capture(t, func() error {
		return runReduced(context.Background(), names, false, false, rcfg, sopt, 2)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"2 shards characterized, 0 reused",
		"shard reads: 2",
		"MiBench/sha/large",
		"skipped insts",
	} {
		if !strings.Contains(first, want) {
			t.Errorf("reduced store run output missing %q:\n%s", want, first)
		}
	}
	second, err := capture(t, func() error {
		return runReduced(context.Background(), names, false, false, rcfg, sopt, 2)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(second, "0 shards characterized, 2 reused") {
		t.Errorf("incremental reduced rerun did not reuse shards:\n%s", second)
	}
	tail := second[strings.Index(second, "benchmark"):]
	if !strings.HasSuffix(first, tail) {
		t.Error("store-backed reduced rerun renders a different table")
	}
}

// TestRunReducedJointStoreWarm drives -reduced -joint -store -warm end
// to end: the rerun reuses every shard and takes the warm path.
func TestRunReducedJointStoreWarm(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	rcfg := mica.ReducedConfig{Phase: mica.PhaseConfig{IntervalLen: 2_000, MaxIntervals: 10, MaxK: 4, Seed: 1}}
	sopt := mica.StoreOptions{Dir: dir, Incremental: true, WarmStart: true}
	names := "MiBench/sha/large,SPEC2000/gzip/program"
	first, err := capture(t, func() error {
		return runReduced(context.Background(), names, false, true, rcfg, sopt, 2)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(first, "joint reduced profile: 2 benchmarks") {
		t.Errorf("joint reduced store output wrong:\n%s", first)
	}
	if strings.Contains(first, "warm-started") {
		t.Error("fresh run claimed a warm start")
	}
	second, err := capture(t, func() error {
		return runReduced(context.Background(), names, false, true, rcfg, sopt, 2)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(second, "0 shards characterized, 2 reused") {
		t.Errorf("incremental joint reduced rerun did not reuse shards:\n%s", second)
	}
	if !strings.Contains(second, "warm-started") {
		t.Errorf("warm rerun did not report the warm path:\n%s", second)
	}
}

// TestRunFsckRepair drives -fsck and -fsck -repair end to end: a
// clean store verifies, a corrupted shard fails verification with a
// nonzero exit, -repair quarantines it, and the incremental rerun
// re-characterizes exactly the quarantined benchmark.
func TestRunFsckRepair(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	cfg := mica.PhaseConfig{IntervalLen: 1_000, MaxIntervals: 8, MaxK: 3, Seed: 5}
	names := "MiBench/sha/large, SPEC2000/gzip/program"
	sopt := mica.StoreOptions{Dir: dir, Incremental: true}
	if _, err := capture(t, func() error { return run(context.Background(), names, "", false, true, sopt, cfg, 2) }); err != nil {
		t.Fatal(err)
	}

	out, err := capture(t, func() error { return runFsck(dir, false) })
	if err != nil {
		t.Fatalf("clean store failed fsck: %v", err)
	}
	if !strings.Contains(out, "clean") {
		t.Errorf("clean store not reported clean:\n%s", out)
	}

	// Flip one byte in the middle of a shard: the CRC check must catch it.
	shards, err := filepath.Glob(filepath.Join(dir, "*.ivs"))
	if err != nil || len(shards) != 2 {
		t.Fatalf("store has %d shards (%v), want 2", len(shards), err)
	}
	raw, err := os.ReadFile(shards[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(shards[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	out, err = capture(t, func() error { return runFsck(dir, false) })
	if err == nil {
		t.Fatalf("corrupted store passed fsck:\n%s", out)
	}
	if !strings.Contains(out, "bad shard") {
		t.Errorf("fsck did not name the bad shard:\n%s", out)
	}

	out, err = capture(t, func() error { return runFsck(dir, true) })
	if err != nil {
		t.Fatalf("repair failed: %v", err)
	}
	if !strings.Contains(out, "quarantined") || !strings.Contains(out, "-incremental") {
		t.Errorf("repair output missing quarantine/resume hint:\n%s", out)
	}

	rerun, err := capture(t, func() error { return run(context.Background(), names, "", false, true, sopt, cfg, 2) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rerun, "1 shards characterized, 1 reused") {
		t.Errorf("post-repair rerun did not re-characterize exactly the quarantined benchmark:\n%s", rerun)
	}
}

// TestRunTraceReplay: -trace analyzes a recorded file and reproduces
// the live benchmark's phase analysis exactly (same timeline, same
// representatives), differing only in the displayed name.
func TestRunTraceReplay(t *testing.T) {
	cfg := mica.PhaseConfig{IntervalLen: 2_000, MaxIntervals: 10, MaxK: 4, Seed: 1}
	bench := "SPEC2000/twolf/ref"
	b, err := mica.BenchmarkByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	trc := filepath.Join(t.TempDir(), "twolf.trc")
	if _, err := mica.RecordTrace(b, trc, cfg.IntervalLen*uint64(cfg.MaxIntervals)); err != nil {
		t.Fatal(err)
	}
	live, err := capture(t, func() error {
		return run(context.Background(), bench, "", false, false, mica.StoreOptions{}, cfg, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	replay, err := capture(t, func() error {
		return run(context.Background(), "", trc, false, false, mica.StoreOptions{}, cfg, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Everything after the first line (which names the benchmark) must
	// match byte for byte: timeline, representatives, reconstruction.
	liveBody := live[strings.Index(live, "\n"):]
	replayBody := replay[strings.Index(replay, "\n"):]
	if replayBody != liveBody {
		t.Errorf("trace replay diverges from live analysis:\nlive:\n%s\nreplay:\n%s", live, replay)
	}
}
