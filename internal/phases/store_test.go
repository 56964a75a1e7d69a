package phases

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mica/internal/ivstore"
	"mica/internal/mica"
	"mica/internal/stats"
)

// synthBench builds one benchmark's characterized intervals with
// plausible characteristic ranges, deterministic in seed.
func synthBench(name string, intervals int, seed int64) BenchmarkIntervals {
	rng := rand.New(rand.NewSource(seed))
	res := &Result{Vectors: stats.NewMatrix(intervals, mica.NumChars)}
	var start uint64
	for i := 0; i < intervals; i++ {
		insts := uint64(900 + rng.Intn(200))
		res.Intervals = append(res.Intervals, Interval{Index: i, Start: start, Insts: insts})
		start += insts
		row := res.Vectors.Row(i)
		// Three behaviour modes so the clustering has real structure.
		mode := float64(i * 3 / intervals)
		for c := range row {
			switch {
			case c < 8: // mix fractions
				row[c] = 0.1 + 0.2*mode + 0.01*rng.Float64()
			case c < 14: // ILP-ish
				row[c] = 2 + 3*mode + 0.05*rng.Float64()
			default:
				row[c] = 100*mode + rng.Float64()
			}
		}
	}
	return BenchmarkIntervals{Name: name, Result: res}
}

// roundF32 returns a copy of benches with every vector value rounded
// through float32 — the store's default encoding applied in memory.
func roundF32(benches []BenchmarkIntervals) []BenchmarkIntervals {
	out := make([]BenchmarkIntervals, len(benches))
	for i, b := range benches {
		r := &Result{Intervals: b.Result.Intervals, Vectors: b.Result.Vectors.Clone()}
		for k, v := range r.Vectors.Data {
			r.Vectors.Data[k] = float64(float32(v))
		}
		out[i] = BenchmarkIntervals{Name: b.Name, Result: r}
	}
	return out
}

// storeFrom writes benches into a fresh committed store.
func storeFrom(t *testing.T, dir string, benches []BenchmarkIntervals) *ivstore.Store {
	t.Helper()
	st, err := ivstore.Create(dir, ivstore.Config{Dims: mica.NumChars, ConfigHash: "test"})
	if err != nil {
		t.Fatal(err)
	}
	order := make([]string, len(benches))
	for i, b := range benches {
		order[i] = b.Name
		insts := make([]uint64, len(b.Result.Intervals))
		for ii, iv := range b.Result.Intervals {
			insts[ii] = iv.Insts
		}
		if err := st.WriteShard(b.Name, insts, b.Result.Vectors); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Commit(order); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	opened, err := ivstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return opened
}

// TestAnalyzeJointStoreBitIdentical is the tentpole differential: the
// store-backed joint vocabulary equals AnalyzeJoint on the same
// benchmark set bit for bit — by construction against the
// float32-rounded in-memory input (which IS what a float32 store
// holds), and as an end-to-end fact against the raw float64 input on
// this data, where the rounding perturbs nothing the clustering sees.
func TestAnalyzeJointStoreBitIdentical(t *testing.T) {
	benches := []BenchmarkIntervals{
		synthBench("s/a/one", 60, 1),
		synthBench("s/b/two", 45, 2),
		synthBench("s/c/three", 70, 3),
	}
	cfg := Config{IntervalLen: 1000, MaxIntervals: 70, MaxK: 6, Seed: 2006}

	st := storeFrom(t, t.TempDir(), benches)
	got, _, err := AnalyzeJointStore(t.Context(), st, cfg, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Vectors != nil {
		t.Error("store-backed result materialized the joint matrix")
	}
	// One sequential pass: each shard is read once, not once per
	// clustering pass.
	if cs := st.CacheStats(); cs.Decodes != uint64(len(benches)) || cs.Misses != cs.Decodes {
		t.Errorf("read accounting %+v, want one decode per shard (%d)", cs, len(benches))
	}

	// Exact contract: identical to the in-memory path on the rounded
	// vectors, field for field.
	wantRounded, err := AnalyzeJoint(roundF32(benches), cfg)
	if err != nil {
		t.Fatal(err)
	}
	compareJoint(t, "vs rounded in-memory", got, wantRounded)

	// End-to-end: on this (well-separated) data the float32 round-trip
	// must not move the vocabulary at all relative to raw float64 input.
	wantRaw, err := AnalyzeJoint(benches, cfg)
	if err != nil {
		t.Fatal(err)
	}
	compareJoint(t, "vs raw in-memory", got, wantRaw)

	// Determinism across worker counts.
	again, _, err := AnalyzeJointStore(t.Context(), st, cfg, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	compareJoint(t, "across worker counts", got, again)
}

// compareJoint asserts every clustering-derived field matches
// (Vectors excluded: the store path deliberately never builds it).
func compareJoint(t *testing.T, what string, got, want *JointResult) {
	t.Helper()
	if !reflect.DeepEqual(got.Benchmarks, want.Benchmarks) {
		t.Errorf("%s: benchmarks diverge", what)
	}
	if !reflect.DeepEqual(got.Rows, want.Rows) || !reflect.DeepEqual(got.RowInsts, want.RowInsts) {
		t.Errorf("%s: row provenance diverges", what)
	}
	if got.K != want.K {
		t.Fatalf("%s: K = %d, want %d", what, got.K, want.K)
	}
	if !reflect.DeepEqual(got.Assign, want.Assign) {
		t.Errorf("%s: assignment diverges", what)
	}
	if !reflect.DeepEqual(got.Representatives, want.Representatives) {
		t.Errorf("%s: representatives diverge: %+v vs %+v", what, got.Representatives, want.Representatives)
	}
	if !reflect.DeepEqual(got.Occupancy, want.Occupancy) {
		t.Errorf("%s: occupancy diverges", what)
	}
}

// TestAnalyzeJointStoreRejects: dimensionality and emptiness are
// validated up front with errors naming the store.
func TestAnalyzeJointStoreRejects(t *testing.T) {
	dir := t.TempDir()
	st, err := ivstore.Create(dir, ivstore.Config{Dims: 5})
	if err != nil {
		t.Fatal(err)
	}
	insts := []uint64{100, 100}
	if err := st.WriteShard("x", insts, stats.FromRows([][]float64{{1, 2, 3, 4, 5}, {2, 3, 4, 5, 6}})); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Commit([]string{"x"}); err != nil {
		t.Fatal(err)
	}
	opened, err := ivstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := AnalyzeJointStore(t.Context(), opened, Config{}, 0, nil); err == nil {
		t.Error("5-dimensional store accepted for 47-dim joint analysis")
	}

	empty, err := ivstore.Create(t.TempDir(), ivstore.Config{Dims: mica.NumChars})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := empty.Commit(nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := AnalyzeJointStore(t.Context(), empty, Config{}, 0, nil); err == nil {
		t.Error("empty store accepted")
	}
}

// minibatchBenches is a synthetic benchmark set whose joint matrix is
// large enough (8,400 rows) for the sweep to pick the minibatch engine,
// so the store-backed sampled path is compared against memory.
func minibatchBenches() []BenchmarkIntervals {
	benches := make([]BenchmarkIntervals, 6)
	for i := range benches {
		benches[i] = synthBench(fmt.Sprintf("mb/%d", i), 1400, int64(40+i))
	}
	return benches
}

// TestAnalyzeJointStoreMinibatchBitIdentical is the store-vs-memory
// differential at minibatch scale: the store-backed vocabulary equals
// AnalyzeJoint on the float32-rounded vectors bit for bit, cold and
// warm-started from its own state, at one and two sweep workers.
func TestAnalyzeJointStoreMinibatchBitIdentical(t *testing.T) {
	benches := minibatchBenches()
	cfg := Config{IntervalLen: 1000, MaxIntervals: 1400, MaxK: 5, Seed: 2006}
	want, err := AnalyzeJoint(roundF32(benches), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(want.Rows); n < 8192 {
		t.Fatalf("joint matrix has %d rows, below the minibatch threshold", n)
	}
	st := storeFrom(t, t.TempDir(), benches)
	for _, workers := range []int{1, 2} {
		cold, _, err := AnalyzeJointStore(t.Context(), st, cfg, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		compareJoint(t, fmt.Sprintf("cold, %d workers", workers), cold, want)

		warm, used, err := AnalyzeJointStore(t.Context(), st, cfg, workers, cold.WarmState(st.ConfigHash()))
		if err != nil {
			t.Fatal(err)
		}
		if !used {
			t.Fatal("matching warm state was not used")
		}
		compareJoint(t, fmt.Sprintf("warm, %d workers", workers), warm, want)
	}
}
