package mica

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"reflect"
	"strings"
	"testing"

	"mica/internal/faults"
)

// fiBenchmarks is the small deterministic set the fault suites drive
// the store pipeline over.
func fiBenchmarks(t *testing.T) []Benchmark {
	t.Helper()
	var bs []Benchmark
	for _, n := range []string{"MiBench/sha/large", "CommBench/drr/drr", "SPEC2000/gzip/program"} {
		b, err := BenchmarkByName(n)
		if err != nil {
			t.Fatal(err)
		}
		bs = append(bs, b)
	}
	return bs
}

// fiConfig is tiny and single-worker so the recorded injection
// addresses are reproducible across replays.
func fiConfig() PhasePipelineConfig {
	return PhasePipelineConfig{
		Phase:   PhaseConfig{IntervalLen: 500, MaxIntervals: 4, MaxK: 2, Seed: 1},
		Workers: 1,
	}
}

// characterizeOnce runs one CharacterizeToStoreCtx build, converting a
// panic that escapes the pipeline into an error (the in-process shape
// of a crash) and always releasing the store handle — the lock release
// a killed process gets from the OS.
func characterizeOnce(ctx context.Context, bs []Benchmark, dir string) (stats *StoreBuildStats, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("simulated crash: %v", r)
		}
	}()
	st, stats, err := CharacterizeToStoreCtx(ctx, bs, fiConfig(), StoreOptions{Dir: dir, Incremental: true})
	if st != nil {
		st.Close()
	}
	return stats, err
}

// recoverOrClean asserts dir is Verify-clean, Repair-recoverable, or
// holds no committed manifest at all, and returns the benchmarks the
// recovered manifest still covers — the shards the next incremental
// rerun must adopt instead of rebuilding.
func recoverOrClean(t *testing.T, dir string) []string {
	t.Helper()
	rep, err := VerifyIVStore(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil // crash before the first commit: nothing durable yet
	}
	if err != nil {
		t.Fatalf("crashed store unreadable: %v", err)
	}
	if !rep.Clean() {
		if _, err := RepairIVStore(dir); err != nil {
			t.Fatalf("repairing crashed store: %v", err)
		}
		if rep, err = VerifyIVStore(dir); err != nil || !rep.Clean() {
			t.Fatalf("store still dirty after repair (err=%v):\n%s", err, rep.String())
		}
	}
	st, err := OpenIVStore(dir)
	if err != nil {
		t.Fatalf("opening recovered store: %v", err)
	}
	defer st.Close()
	return st.Benchmarks()
}

// TestStorePipelineKillAtEveryInjectionPoint is the pipeline-level
// acceptance test: record the injection addresses one full
// CharacterizeToStoreCtx run crosses (worker items, every shard and
// manifest durability step), then replay the build once per address
// with a fault armed there. After every simulated crash the store must
// be Verify-clean or Repair-recoverable, and an incremental rerun must
// finish the job while adopting exactly the shards the crashed run
// committed.
func TestStorePipelineKillAtEveryInjectionPoint(t *testing.T) {
	bs := fiBenchmarks(t)

	stop := faults.Record()
	_, recErr := characterizeOnce(context.Background(), bs, t.TempDir())
	addrs := stop()
	if recErr != nil {
		t.Fatalf("recording run failed: %v", recErr)
	}
	if len(addrs) == 0 {
		t.Fatal("recording run crossed no injection points")
	}

	for _, addr := range addrs {
		// Faults at worker-side points (the pool item itself, shard
		// writes inside fn) are exercised as both clean failures and
		// panics — the latter drives the pool's real recovery machinery.
		// Manifest-side points run on the caller's goroutine inside
		// Commit, where a panic would leak the store's lock handle into
		// the test process, so they get the Fail shape only (their crash
		// coverage lives in the ivstore-level kill test, whose build
		// wrapper owns the handle).
		kinds := []faults.Kind{faults.Fail}
		if addr.Point == faults.PoolItem || strings.HasSuffix(addr.Key, ".ivs") {
			kinds = append(kinds, faults.Crash)
		}
		for _, kind := range kinds {
			t.Run(fmt.Sprintf("%s_%s", addr, kind), func(t *testing.T) {
				dir := t.TempDir()
				disarm := faults.Arm(addr, kind)
				_, buildErr := characterizeOnce(context.Background(), bs, dir)
				if fired := disarm(); fired != 1 {
					t.Fatalf("fault at %s fired %d times, want 1 (address drift?)", addr, fired)
				}
				if buildErr == nil {
					t.Fatal("injected fault did not surface as an error")
				}

				adopted := recoverOrClean(t, dir)

				stats, err := characterizeOnce(context.Background(), bs, dir)
				if err != nil {
					t.Fatalf("incremental rerun after crash at %s: %v", addr, err)
				}
				if got := len(stats.Reused) + len(stats.Characterized); got != len(bs) {
					t.Fatalf("rerun covered %d benchmarks (reused %v, characterized %v), want %d",
						got, stats.Reused, stats.Characterized, len(bs))
				}
				// Resume contract: exactly the crashed run's committed
				// shards are adopted; only the rest pay characterization.
				if !reflect.DeepEqual(stats.Reused, adopted) {
					t.Errorf("rerun reused %v, want the recovered store's shards %v", stats.Reused, adopted)
				}
				rep, err := VerifyIVStore(dir)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Clean() || len(rep.Shards) != len(bs) {
					t.Fatalf("final store not clean/complete:\n%s", rep.String())
				}
			})
		}
	}
}

// TestStorePipelineCancelCommitsPartialWork pins the cancellation
// acceptance: cancelling mid-run returns promptly with every finished
// shard committed, and the incremental rerun adopts them.
func TestStorePipelineCancelCommitsPartialWork(t *testing.T) {
	bs := fiBenchmarks(t)
	dir := t.TempDir()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := fiConfig()
	// Cancel as soon as the first benchmark finishes: with one worker,
	// the remaining two are never dispatched.
	cfg.Progress = func(done, total int, name string) {
		if done == 1 {
			cancel()
		}
	}
	st, stats, err := CharacterizeToStoreCtx(ctx, bs, cfg, StoreOptions{Dir: dir, Incremental: true})
	if st != nil {
		st.Close()
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled in the chain", err)
	}
	if len(stats.Characterized) != 1 || len(stats.Skipped) != 2 || len(stats.Failed) != 0 {
		t.Fatalf("cancelled run stats = %+v, want 1 characterized / 2 skipped", stats)
	}

	// The committed partial store is durable and adoptable.
	rep, err := VerifyIVStore(dir)
	if err != nil || !rep.Clean() {
		t.Fatalf("partial store not clean (err=%v)", err)
	}
	st2, stats2, err := CharacterizeToStoreCtx(context.Background(), bs, fiConfig(), StoreOptions{Dir: dir, Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if !reflect.DeepEqual(stats2.Reused, stats.Characterized) {
		t.Errorf("rerun reused %v, want the cancelled run's committed %v", stats2.Reused, stats.Characterized)
	}
	if len(stats2.Characterized) != 2 {
		t.Errorf("rerun characterized %v, want exactly the 2 skipped benchmarks", stats2.Characterized)
	}
	if got := st2.Benchmarks(); len(got) != len(bs) {
		t.Errorf("final store covers %v", got)
	}
}
