package mica

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mica/internal/phases"
)

// storeTestConfig keeps store-pipeline tests fast: a handful of short
// intervals per benchmark.
var storeTestConfig = PhaseConfig{IntervalLen: 500, MaxIntervals: 8, MaxK: 3, Seed: 2006}

func storeBenchmarks(t *testing.T, names ...string) []Benchmark {
	t.Helper()
	bs := make([]Benchmark, len(names))
	for i, n := range names {
		b, err := BenchmarkByName(n)
		if err != nil {
			t.Fatal(err)
		}
		bs[i] = b
	}
	return bs
}

// TestUnchangedJointRerunKeepsManifest: the warm joint rerun — an
// Incremental CharacterizeToStoreCtx over an unchanged store, then
// AnalyzePhasesJointOpenStoreCtx seeded from the cold run's warm
// state — keeps manifest.json in place (same inode) and reproduces the
// cold vocabulary.
func TestUnchangedJointRerunKeepsManifest(t *testing.T) {
	bs := storeBenchmarks(t, "MiBench/sha/large", "CommBench/drr/drr", "SPEC2000/gzip/program")
	dir := filepath.Join(t.TempDir(), "store")
	pcfg := PhasePipelineConfig{Phase: storeTestConfig, Workers: 1}
	build := func(opt StoreOptions) (*PhaseJointResult, *StoreBuildStats, bool) {
		t.Helper()
		st, stats, err := CharacterizeToStoreCtx(context.Background(), bs, pcfg, opt)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		j, warmUsed, err := AnalyzePhasesJointOpenStoreCtx(context.Background(), st, pcfg.Phase, pcfg.Workers, opt.WarmStart)
		if err != nil {
			t.Fatal(err)
		}
		return j, stats, warmUsed
	}
	cold, _, _ := build(StoreOptions{Dir: dir, WarmStart: true})
	manPath := filepath.Join(dir, "manifest.json")
	before, err := os.Stat(manPath)
	if err != nil {
		t.Fatal(err)
	}

	warm, stats, warmUsed := build(StoreOptions{Dir: dir, Incremental: true, WarmStart: true})
	if len(stats.Reused) != len(bs) || !warmUsed {
		t.Fatalf("warm rerun reused %v (warm start %v), want all %d warm", stats.Reused, warmUsed, len(bs))
	}
	after, err := os.Stat(manPath)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) {
		t.Error("warm joint rerun replaced manifest.json")
	}
	if warm.K != cold.K || !reflect.DeepEqual(warm.Assign, cold.Assign) {
		t.Errorf("warm rerun chose K=%d, cold K=%d (assignments equal: %v)",
			warm.K, cold.K, reflect.DeepEqual(warm.Assign, cold.Assign))
	}
}

// TestAnalyzePhasesJointStoreMatchesInMemory is the top-level
// differential of the tentpole: on a real benchmark set, the
// store-backed joint vocabulary equals the in-memory AnalyzeJoint
// vocabulary — bit-identical against the float32-rounded input (what
// a float32 store holds by definition), and identical end-to-end
// against the raw in-memory pipeline on this set.
func TestAnalyzePhasesJointStoreMatchesInMemory(t *testing.T) {
	bs := storeBenchmarks(t, "MiBench/sha/large", "CommBench/drr/drr", "SPEC2000/gzip/program")
	pcfg := PhasePipelineConfig{Phase: storeTestConfig, Workers: 2}

	mem, err := Run(context.Background(), Request{Benchmarks: bs, Joint: true, Phases: &pcfg})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), Request{
		Benchmarks: bs, Joint: true, Phases: &pcfg, Store: StoreOptions{Dir: filepath.Join(t.TempDir(), "store")},
	})
	if err != nil {
		t.Fatal(err)
	}
	want, got, stats := mem.Joint, rep.Joint, rep.Store
	if len(stats.Characterized) != len(bs) || len(stats.Reused) != 0 {
		t.Fatalf("fresh build stats %+v, want all characterized", stats)
	}
	if got.Vectors != nil {
		t.Error("store-backed result materialized the joint matrix")
	}
	if !reflect.DeepEqual(got.Benchmarks, want.Benchmarks) ||
		!reflect.DeepEqual(got.Rows, want.Rows) ||
		!reflect.DeepEqual(got.RowInsts, want.RowInsts) {
		t.Error("store-backed provenance diverges from in-memory")
	}
	if got.K != want.K || !reflect.DeepEqual(got.Assign, want.Assign) ||
		!reflect.DeepEqual(got.Representatives, want.Representatives) ||
		!reflect.DeepEqual(got.Occupancy, want.Occupancy) {
		t.Errorf("store-backed vocabulary diverges from in-memory: K %d vs %d", got.K, want.K)
	}
}

// TestCharacterizeToStoreIncremental is the incremental acceptance
// test: a rerun that changes one benchmark re-characterizes only that
// benchmark, observed through the pipeline progress counter.
func TestCharacterizeToStoreIncremental(t *testing.T) {
	names := []string{"MiBench/sha/large", "CommBench/drr/drr", "SPEC2000/gzip/program"}
	bs := storeBenchmarks(t, names...)
	dir := filepath.Join(t.TempDir(), "store")
	profiled := 0
	pcfg := PhasePipelineConfig{
		Phase:    storeTestConfig,
		Workers:  1,
		Progress: func(done, total int, name string) { profiled++ },
	}
	inc := StoreOptions{Dir: dir, Incremental: true}

	// Fresh build characterizes everything.
	st0, stats := mustCharacterizeToStore(t, bs, pcfg, inc)
	st0.Close()
	if profiled != len(bs) || len(stats.Characterized) != len(bs) {
		t.Fatalf("fresh build characterized %d (progress %d), want %d", len(stats.Characterized), profiled, len(bs))
	}
	baseline, _, err := phases.AnalyzeJointStore(t.Context(), mustOpenStore(t, dir), storeTestConfig, 1, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Unchanged rerun: zero profiling, identical vocabulary.
	profiled = 0
	st, stats := mustCharacterizeToStore(t, bs, pcfg, inc)
	st.Close()
	if profiled != 0 || len(stats.Characterized) != 0 || len(stats.Reused) != len(bs) {
		t.Fatalf("unchanged rerun profiled %d, stats %+v", profiled, stats)
	}
	again, _, err := phases.AnalyzeJointStore(t.Context(), st, storeTestConfig, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(baseline, again) {
		t.Error("vocabulary from reused shards diverges from the fresh build")
	}

	// "Change" one benchmark by removing its shard file: only it is
	// re-characterized.
	if err := os.Remove(filepath.Join(dir, shardFileOf(t, dir, names[1]))); err != nil {
		t.Fatal(err)
	}
	profiled = 0
	st1, stats := mustCharacterizeToStore(t, bs, pcfg, inc)
	st1.Close()
	if profiled != 1 || !reflect.DeepEqual(stats.Characterized, []string{names[1]}) {
		t.Fatalf("one-benchmark change re-characterized %v (progress %d), want just %s",
			stats.Characterized, profiled, names[1])
	}

	// Membership change: adding one benchmark characterizes only it.
	grown := append(append([]Benchmark(nil), bs...), storeBenchmarks(t, "MiBench/FFT/fft-large")...)
	profiled = 0
	st2, stats := mustCharacterizeToStore(t, grown, pcfg, inc)
	st2.Close()
	if profiled != 1 || !reflect.DeepEqual(stats.Characterized, []string{"MiBench/FFT/fft-large"}) {
		t.Fatalf("grown set re-characterized %v, want just the new benchmark", stats.Characterized)
	}

	// Dropping a benchmark prunes its shard and profiles nothing.
	droppedFile := shardFileOf(t, dir, names[0])
	shrunk := grown[1:]
	profiled = 0
	st3, stats := mustCharacterizeToStore(t, shrunk, pcfg, inc)
	st3.Close()
	if profiled != 0 || len(stats.Reused) != len(shrunk) {
		t.Fatalf("shrunk set stats %+v (progress %d)", stats, profiled)
	}
	if _, err := os.Stat(filepath.Join(dir, droppedFile)); !os.IsNotExist(err) {
		t.Error("dropped benchmark's shard not pruned")
	}

	// A configuration change invalidates every shard.
	changed := pcfg
	changed.Phase.IntervalLen = 600
	profiled = 0
	st4, stats := mustCharacterizeToStore(t, shrunk, changed, inc)
	st4.Close()
	if profiled != len(shrunk) || len(stats.Reused) != 0 {
		t.Fatalf("config change reused %v, want full rebuild", stats.Reused)
	}
}

// TestConfigKeysPinned pins the serialized configuration stamps of the
// zero configurations. Every committed store shard carries one of these
// stamps and mica-serve dedups submissions on them, so a change to the
// normalized form (a renamed JSON field, a new non-omitempty field, a
// different default) would silently orphan every existing store. A
// non-nil empty subset means "all characteristics" and must stamp like
// nil.
func TestConfigKeysPinned(t *testing.T) {
	const zeroKey = "4805ce0a0c58485b43d7347ac8d7be493ad52653999362a86f206953e10974ab"
	if got := PhaseConfigKey(PhaseConfig{}); got != zeroKey {
		t.Errorf("PhaseConfigKey(PhaseConfig{}) = %s, want %s", got, zeroKey)
	}
	empty := PhaseConfig{}
	empty.Options.Subset = []bool{}
	if got := PhaseConfigKey(empty); got != zeroKey {
		t.Errorf("empty-subset PhaseConfigKey = %s, want the nil-subset key %s", got, zeroKey)
	}
	if got, want := ReducedConfigKey(ReducedConfig{}), "5fd828fb81db1aac4235b0eb46dfed8ea791aa9245a6ebd5af0686272e926271"; got != want {
		t.Errorf("ReducedConfigKey(ReducedConfig{}) = %s, want %s", got, want)
	}
}

// TestConfigKeysCoverEveryField walks every field of PhaseConfig and
// ReducedConfig, nested options included: each must change its key, or
// be listed as output-neutral (by its path or an enclosing struct's)
// with the reason. The reduced key stamps only the cheap pass, which is
// all its store shards hold.
func TestConfigKeysCoverEveryField(t *testing.T) {
	checkKeyCoversFields(t, PhaseConfigKey, nil)
	checkKeyCoversFields(t, ReducedConfigKey, map[string]string{
		"Phase.Options.Subset": "the cheap pass measures Subset instead",
		"RepsPerPhase":         "the expensive pass only; shards hold the cheap pass",
		"FullOptions":          "the expensive pass only; shards hold the cheap pass",
		"SkipHPC":              "the expensive pass only; shards hold the cheap pass",
	})
}

// checkKeyCoversFields perturbs each leaf field of a zero T in turn and
// fails unless key changes exactly for the fields neutral does not
// cover.
func checkKeyCoversFields[T any](t *testing.T, key func(T) string, neutral map[string]string) {
	t.Helper()
	var zero T
	base := key(zero)
	used := map[string]bool{}
	var walk func(typ reflect.Type, index []int, prefix string)
	walk = func(typ reflect.Type, index []int, prefix string) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			name := prefix + f.Name
			idx := append(append([]int(nil), index...), i)
			if f.Type.Kind() == reflect.Struct {
				walk(f.Type, idx, name+".")
				continue
			}
			isNeutral := false
			for p := name; ; p = p[:strings.LastIndex(p, ".")] {
				if _, ok := neutral[p]; ok {
					isNeutral, used[p] = true, true
				}
				if !strings.Contains(p, ".") {
					break
				}
			}
			var cfg T
			if !perturbField(reflect.ValueOf(&cfg).Elem().FieldByIndex(idx)) {
				t.Errorf("%T.%s (%s) cannot be perturbed", zero, name, f.Type)
				continue
			}
			switch changed := key(cfg) != base; {
			case isNeutral && changed:
				t.Errorf("%T.%s is listed as neutral but changes the key", zero, name)
			case !isNeutral && !changed:
				t.Errorf("%T.%s does not change the key", zero, name)
			}
		}
	}
	walk(reflect.TypeOf(zero), nil, "")
	for p := range neutral {
		if !used[p] {
			t.Errorf("neutral entry %q names no field of %T", p, zero)
		}
	}
}

// perturbField sets v to a value no default normalizes back to zero and
// reports whether its kind is supported.
func perturbField(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 3)
	case reflect.Uint64:
		v.SetUint(v.Uint() + 7)
	case reflect.Float64:
		v.SetFloat(v.Float() + 0.5)
	case reflect.Slice:
		if v.Type().Elem().Kind() != reflect.Bool {
			return false
		}
		v.Set(reflect.ValueOf([]bool{true}))
	default:
		return false
	}
	return true
}

// mustCharacterizeToStore builds a store through CharacterizeToStoreCtx
// and fails the test on any error, closing the store first.
func mustCharacterizeToStore(t *testing.T, bs []Benchmark, cfg PhasePipelineConfig, opt StoreOptions) (*IVStore, *StoreBuildStats) {
	t.Helper()
	st, stats, err := CharacterizeToStoreCtx(context.Background(), bs, cfg, opt)
	if err != nil {
		if st != nil {
			st.Close()
		}
		t.Fatal(err)
	}
	return st, stats
}

// mustOpenStore opens a committed store and immediately releases its
// lock — test reads do not need protection from concurrent writers,
// and a held shared lock would block the rebuilds these tests exercise
// (Create takes the lock exclusive).
func mustOpenStore(t *testing.T, dir string) *IVStore {
	t.Helper()
	st, err := OpenIVStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	return st
}

// shardFileOf resolves a benchmark's shard file from the committed
// manifest (file names embed the configuration stamp).
func shardFileOf(t *testing.T, dir, name string) string {
	t.Helper()
	for _, sh := range mustOpenStore(t, dir).Shards() {
		if sh.Name == name {
			return sh.File
		}
	}
	t.Fatalf("no shard for %s in %s", name, dir)
	return ""
}

// TestCharacterizeToStoreQuantized: the quantized store runs the same
// pipeline and analysis end to end, and its shards are roughly a
// quarter the size of the float32 ones.
func TestCharacterizeToStoreQuantized(t *testing.T) {
	bs := storeBenchmarks(t, "MiBench/sha/large", "CommBench/drr/drr")
	// Enough intervals that the per-column quantization scales (16
	// bytes each) amortize against the row data.
	pcfg := PhasePipelineConfig{
		Phase:   PhaseConfig{IntervalLen: 100, MaxIntervals: 200, MaxK: 3, Seed: 2006},
		Workers: 1,
	}
	base := t.TempDir()
	stF, _ := mustCharacterizeToStore(t, bs, pcfg, StoreOptions{Dir: filepath.Join(base, "f32")})
	stF.Close()
	stQ, _ := mustCharacterizeToStore(t, bs, pcfg, StoreOptions{Dir: filepath.Join(base, "q8"), Quantize: true})
	stQ.Close()
	sizeOf := func(st *IVStore) int64 {
		var total int64
		for _, sh := range st.Shards() {
			fi, err := os.Stat(filepath.Join(st.Dir(), sh.File))
			if err != nil {
				t.Fatal(err)
			}
			total += fi.Size()
		}
		return total
	}
	f, q := sizeOf(stF), sizeOf(stQ)
	if q*3 >= f {
		t.Errorf("quant8 store %d bytes vs float32 %d — expected well under a third", q, f)
	}
	j, _, err := phases.AnalyzeJointStore(t.Context(), stQ, pcfg.Phase, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if j.K < 1 || len(j.Assign) != stQ.NumRows() {
		t.Fatalf("quantized joint vocabulary malformed: K=%d", j.K)
	}
	// An incremental rerun under the other encoding must rebuild, not
	// adopt incompatible shards.
	stR, stats := mustCharacterizeToStore(t, bs, pcfg, StoreOptions{Dir: filepath.Join(base, "q8"), Incremental: true})
	stR.Close()
	if len(stats.Reused) != 0 {
		t.Error("float32 request reused quant8 shards")
	}
}

// TestCharacterizeToStoreRefusesCorrupt: an unreadable store directory
// is an error naming the path, never silently rebuilt over.
func TestCharacterizeToStoreRefusesCorrupt(t *testing.T) {
	bs := storeBenchmarks(t, "MiBench/sha/large")
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte(`{"version": 99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	st, _, err := CharacterizeToStoreCtx(context.Background(), bs, PhasePipelineConfig{Phase: storeTestConfig, Workers: 1},
		StoreOptions{Dir: dir, Incremental: true})
	if st != nil {
		st.Close()
	}
	if err == nil {
		t.Fatal("corrupt store rebuilt over")
	}
	if !strings.Contains(err.Error(), dir) || !strings.Contains(err.Error(), "not a usable") {
		t.Fatalf("error %q does not refuse by name", err)
	}
}

// TestJointStoreRegistryScale is the registry-scale acceptance run:
// the full 122-benchmark registry at 1000 intervals per benchmark,
// characterized into a store and clustered entirely store-backed. The
// point is that it completes with the characterizations kept out of
// memory (the clustering holds only its n×47 normalized matrix beside
// the shard cache) and yields a structurally sound shared vocabulary.
func TestJointStoreRegistryScale(t *testing.T) {
	if testing.Short() {
		t.Skip("registry-scale store run skipped in -short mode")
	}
	bs := Benchmarks()
	pcfg := PhasePipelineConfig{
		Phase:   PhaseConfig{IntervalLen: 400, MaxIntervals: 1000, MaxK: 3, Seed: 2006},
		Workers: 4,
	}
	rep, err := Run(context.Background(), Request{
		Benchmarks: bs, Joint: true, Phases: &pcfg, Store: StoreOptions{Dir: filepath.Join(t.TempDir(), "registry")},
	})
	if err != nil {
		t.Fatal(err)
	}
	j, stats := rep.Joint, rep.Store
	if len(stats.Characterized) != len(bs) {
		t.Fatalf("characterized %d benchmarks, want %d", len(stats.Characterized), len(bs))
	}
	if len(j.Benchmarks) != len(bs) || len(j.Rows) < 100*1000 {
		t.Fatalf("joint space has %d benchmarks, %d rows — want the full registry at >=1k intervals",
			len(j.Benchmarks), len(j.Rows))
	}
	if j.K < 1 || j.K > 3 {
		t.Fatalf("selected K=%d outside the sweep", j.K)
	}
	for b := range j.Benchmarks {
		sum := 0.0
		for c := 0; c < j.K; c++ {
			sum += j.Occupancy.At(b, c)
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("benchmark %d occupancy row sums to %v", b, sum)
		}
	}
}

// TestAnalyzePhasesStoreMatchesInMemory is the store-backed
// per-benchmark differential: each benchmark's result holds exactly the
// float32-rounded in-memory vectors (what a float32 store holds by
// definition) on the identical interval grid, and its phases are bit
// for bit the in-memory clustering of those rounded vectors — computed
// by the single-benchmark joint analysis, which is pinned bit-identical
// to per-benchmark analysis. An incremental rerun characterizes nothing
// and clusters the reused shards to the same result.
func TestAnalyzePhasesStoreMatchesInMemory(t *testing.T) {
	bs := storeBenchmarks(t, "MiBench/sha/large", "CommBench/drr/drr", "SPEC2000/gzip/program")
	profiled := 0
	pcfg := PhasePipelineConfig{
		Phase:    storeTestConfig,
		Workers:  2,
		Progress: func(done, total int, name string) { profiled++ },
	}
	mem, err := Run(context.Background(), Request{Benchmarks: bs, Phases: &PhasePipelineConfig{Phase: storeTestConfig, Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Benchmarks: bs, Phases: &pcfg, Store: StoreOptions{Dir: filepath.Join(t.TempDir(), "store"), Incremental: true}}
	rep, err := Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	want, got, stats := mem.Phases, rep.Phases, rep.Store
	if profiled != len(bs) || len(stats.Characterized) != len(bs) {
		t.Fatalf("fresh build characterized %v (progress %d), want all %d", stats.Characterized, profiled, len(bs))
	}
	if stats.Cache.Decodes == 0 {
		t.Error("clustering bypassed the decoded-shard cache")
	}
	for i, b := range bs {
		g, w := got[i].Result, want[i].Result
		if got[i].Benchmark.Name() != b.Name() || g == nil {
			t.Fatalf("result %d is %s (nil=%v), want %s", i, got[i].Benchmark.Name(), g == nil, b.Name())
		}
		if !reflect.DeepEqual(g.Intervals, w.Intervals) {
			t.Errorf("%s: store-backed interval grid diverges from in-memory", b.Name())
		}
		rounded := &PhaseResult{Intervals: w.Intervals, Vectors: w.Vectors.Clone()}
		for k, v := range rounded.Vectors.Data {
			rounded.Vectors.Data[k] = float64(float32(v))
		}
		if !reflect.DeepEqual(g.Vectors, rounded.Vectors) {
			t.Fatalf("%s: stored vectors are not the float32-rounded in-memory vectors", b.Name())
		}
		oracle, err := phases.AnalyzeJoint([]phases.BenchmarkIntervals{{Name: b.Name(), Result: rounded}}, storeTestConfig)
		if err != nil {
			t.Fatal(err)
		}
		if g.K != oracle.K || !reflect.DeepEqual(g.Assign, oracle.Assign) ||
			len(g.Representatives) != len(oracle.Representatives) {
			t.Fatalf("%s: store-backed phases diverge from the rounded in-memory clustering: K %d vs %d",
				b.Name(), g.K, oracle.K)
		}
		for r, rep := range oracle.Representatives {
			if want := (PhaseRepresentative{Phase: rep.Phase, Interval: rep.Interval, Weight: rep.Weight}); g.Representatives[r] != want {
				t.Errorf("%s: representative %d = %+v, want %+v", b.Name(), r, g.Representatives[r], want)
			}
		}
	}

	profiled = 0
	rep, err = Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	again, stats := rep.Phases, rep.Store
	if profiled != 0 || len(stats.Characterized) != 0 || len(stats.Reused) != len(bs) {
		t.Fatalf("unchanged rerun profiled %d, stats %+v", profiled, stats)
	}
	if !reflect.DeepEqual(again, got) {
		t.Error("rerun from reused shards diverges from the fresh build")
	}
}

// TestVersionMismatchErrorsNameTheFile is the table-driven contract
// for version-stamp rejection across every loader of persisted state:
// the interval-vector store manifest and the recorded-trace container.
// Each error must name the offending file and state both versions in
// the shared "version N, want M" wording, so a stale-file report is
// actionable no matter which layer produced it.
func TestVersionMismatchErrorsNameTheFile(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name string
		load func(t *testing.T) (string, error)
		want string
	}{
		{"ivstore.Open", func(t *testing.T) (string, error) {
			sub := filepath.Join(dir, "store")
			if err := os.MkdirAll(sub, 0o755); err != nil {
				t.Fatal(err)
			}
			p := filepath.Join(sub, "manifest.json")
			doc := `{"version": 99, "dims": 47, "encoding": "float32", "shards": []}`
			if err := os.WriteFile(p, []byte(doc), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := OpenIVStore(sub)
			return p, err
		}, "manifest version 99, want 1"},
		{"trace.Open", func(t *testing.T) (string, error) {
			// A real recorded trace with only its version stamp rewritten:
			// everything past the header is a valid v1 body, so the
			// version check alone must reject it.
			b, err := BenchmarkByName("MiBench/sha/large")
			if err != nil {
				t.Fatal(err)
			}
			p := filepath.Join(dir, "stale.trc")
			if _, err := RecordTrace(b, p, 1_000); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			raw[8] = 99
			if err := os.WriteFile(p, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err = TraceBenchmark("", p).Source()
			return p, err
		}, "trace format version 99, want 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path, err := tc.load(t)
			if err == nil {
				t.Fatal("version-99 file accepted")
			}
			if !strings.Contains(err.Error(), path) {
				t.Errorf("error %q does not name the offending file %s", err, path)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q lacks the unified wording %q", err, tc.want)
			}
		})
	}
}
