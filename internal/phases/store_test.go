package phases

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mica/internal/cluster"
	"mica/internal/ivstore"
	"mica/internal/mica"
	"mica/internal/stats"
)

// benchIntervals pairs a benchmark's name with its characterized
// intervals (Intervals and Vectors set, no clustering).
type benchIntervals struct {
	Name   string
	Result *Result
}

// memFrom keeps benches in an in-memory shard source.
func memFrom(t *testing.T, benches []benchIntervals) *ivstore.Mem {
	t.Helper()
	names := make([]string, len(benches))
	for i, b := range benches {
		names[i] = b.Name
	}
	mem := ivstore.NewMem(names)
	for _, b := range benches {
		if err := mem.WriteShard(b.Name, gridInsts(b.Result), b.Result.Vectors); err != nil {
			t.Fatal(err)
		}
	}
	return mem
}

// gridInsts returns the per-interval instruction counts of res.
func gridInsts(res *Result) []uint64 {
	insts := make([]uint64, len(res.Intervals))
	for i, iv := range res.Intervals {
		insts[i] = iv.Insts
	}
	return insts
}

// concatRows stacks the benches' vectors into one matrix, in order.
func concatRows(benches []benchIntervals) *stats.Matrix {
	var rows [][]float64
	for _, b := range benches {
		for i := 0; i < b.Result.Vectors.Rows; i++ {
			rows = append(rows, b.Result.Vectors.Row(i))
		}
	}
	return stats.FromRows(rows)
}

// jointOracle is an independent joint analysis of benches: their rows
// concatenated, z-scored with stats.ZScoreNormalize and clustered with
// cluster.SelectK — what AnalyzeJointStore must reproduce bit for bit
// on the same values.
func jointOracle(benches []benchIntervals, cfg Config) *JointResult {
	cfg = cfg.WithDefaults()
	j := &JointResult{}
	for bi, b := range benches {
		j.Benchmarks = append(j.Benchmarks, b.Name)
		for ii, iv := range b.Result.Intervals {
			j.Rows = append(j.Rows, RowRef{Bench: bi, Interval: ii})
			j.RowInsts = append(j.RowInsts, iv.Insts)
		}
	}
	norm := stats.ZScoreNormalize(concatRows(benches))
	j.deriveFrom(norm, cluster.SelectK(norm, cfg.MaxK, cfg.Seed))
	return j
}

// synthBench builds one benchmark's characterized intervals with
// plausible characteristic ranges, deterministic in seed. Its values
// are float32, as characterized rows are.
func synthBench(name string, intervals int, seed int64) benchIntervals {
	rng := rand.New(rand.NewSource(seed))
	res := &Result{Vectors: stats.NewMatrix(intervals, mica.NumChars)}
	var start uint64
	for i := 0; i < intervals; i++ {
		insts := uint64(900 + rng.Intn(200))
		res.Intervals = append(res.Intervals, Interval{Index: i, Start: start, Insts: insts})
		start += insts
		row := res.Vectors.Row(i)
		// Three behaviour modes so the clustering has real structure.
		mode := float32(i * 3 / intervals)
		for c := range row {
			var v float32
			switch {
			case c < 8: // mix fractions
				v = 0.1 + 0.2*mode + 0.01*rng.Float32()
			case c < 14: // ILP-ish
				v = 2 + 3*mode + 0.05*rng.Float32()
			default:
				v = 100*mode + rng.Float32()
			}
			row[c] = float64(v)
		}
	}
	return benchIntervals{Name: name, Result: res}
}

// storeFrom writes benches into a fresh committed store.
func storeFrom(t *testing.T, dir string, benches []benchIntervals) *ivstore.Store {
	t.Helper()
	st, err := ivstore.Create(dir, ivstore.Config{Dims: mica.NumChars, ConfigHash: "test"})
	if err != nil {
		t.Fatal(err)
	}
	order := make([]string, len(benches))
	for i, b := range benches {
		order[i] = b.Name
		if err := st.WriteShard(b.Name, gridInsts(b.Result), b.Result.Vectors); err != nil {
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

// TestAnalyzeJointStoreBitIdentical is the store differential: the
// joint vocabulary built from a store equals the independent joint
// oracle on the rows written to it bit for bit, as the store's float32
// encoding is lossless on float32 rows.
func TestAnalyzeJointStoreBitIdentical(t *testing.T) {
	benches := []benchIntervals{
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
	// One sequential pass: each shard is read once, not once per
	// clustering pass.
	if cs := st.CacheStats(); cs.Decodes != uint64(len(benches)) || cs.Misses != cs.Decodes {
		t.Errorf("read accounting %+v, want one decode per shard (%d)", cs, len(benches))
	}

	compareJoint(t, "vs oracle", got, jointOracle(benches, cfg))

	// Determinism across worker counts.
	again, _, err := AnalyzeJointStore(t.Context(), st, cfg, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	compareJoint(t, "across worker counts", got, again)
}

// compareJoint asserts every clustering-derived field matches.
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
	if !reflect.DeepEqual(got.meanDist, want.meanDist) {
		t.Errorf("%s: distances to the phase means diverge", what)
	}
}

// TestAnalyzeJointStoreRejects: a shard of the wrong dimensionality
// and an empty source are rejected.
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
// so the store-backed sampled path is compared against the oracle.
func minibatchBenches() []benchIntervals {
	benches := make([]benchIntervals, 6)
	for i := range benches {
		benches[i] = synthBench(fmt.Sprintf("mb/%d", i), 1400, int64(40+i))
	}
	return benches
}

// TestAnalyzeJointStoreMinibatchBitIdentical is the store differential
// at minibatch scale: the store-backed vocabulary equals the joint
// oracle bit for bit, cold and
// warm-started from its own state, at one and two sweep workers.
func TestAnalyzeJointStoreMinibatchBitIdentical(t *testing.T) {
	benches := minibatchBenches()
	cfg := Config{IntervalLen: 1000, MaxIntervals: 1400, MaxK: 5, Seed: 2006}
	want := jointOracle(benches, cfg)
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
