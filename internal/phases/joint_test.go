package phases

import (
	"math"
	"reflect"
	"testing"

	"mica/internal/ivstore"
	"mica/internal/mica"
	"mica/internal/stats"
)

// characterizeKernel runs the streaming characterization (no
// clustering) over one crafted kernel.
func characterizeKernel(t *testing.T, name, src string, cfg Config) *Result {
	t.Helper()
	prof := mica.NewProfiler(cfg.Options)
	res, err := CharacterizeWith(machineFor(t, name, src), prof, cfg)
	if err != nil {
		t.Fatalf("%s: characterize: %v", name, err)
	}
	return res
}

// TestCharacterizeMatchesExact pins the characterization's numeric
// contract: it walks the grid CharacterizeExact walks, leaves the
// clustering fields empty, and each of its rows is the float32 rounding
// of the vector one profiler, Reset before every interval, measures on
// a fresh machine.
func TestCharacterizeMatchesExact(t *testing.T) {
	cfg := Config{IntervalLen: 2_000, MaxIntervals: 20, MaxK: 4, Seed: 7}
	char := characterizeKernel(t, "twophase", twoPhaseProgram, cfg)
	ex, err := CharacterizeExact(newMachine(t), ReducedConfig{Phase: cfg, FullOptions: cfg.Options, SkipHPC: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(char.Intervals, ex.Intervals) {
		t.Error("characterize intervals diverge from the exact grid")
	}
	if char.Assign != nil || char.K != 0 || char.Representatives != nil {
		t.Error("characterize populated clustering fields")
	}
	m, prof := newMachine(t), mica.NewProfiler(cfg.Options)
	for i, iv := range char.Intervals {
		prof.Reset()
		if n, _ := m.Run(cfg.IntervalLen, prof); n != iv.Insts {
			t.Fatalf("interval %d retired %d instructions, characterized %d", i, n, iv.Insts)
		}
		for c, x := range prof.Vector() {
			if got, want := char.Vectors.At(i, c), float64(float32(x)); got != want {
				t.Errorf("interval %d %s = %v, want float32 %v", i, mica.CharName(c), got, want)
			}
		}
	}
}

// TestAnalyzeJointSingleBenchmarkBitIdentical is the differential
// contract of the per-benchmark analysis: Analyze must reproduce, bit
// for bit, the independent joint oracle (concatenate, z-score, sweep)
// over the benchmark's own intervals alone — assignment, K, and each
// representative's phase, interval (its row) and weight — and keep
// the characterized vectors.
func TestAnalyzeJointSingleBenchmarkBitIdentical(t *testing.T) {
	kernels := []struct{ name, src string }{
		{"twophase", twoPhaseProgram},
		{"strided", stridedProgram},
		{"branchy", branchyProgram},
	}
	cfg := Config{IntervalLen: 2_000, MaxIntervals: 25, MaxK: 4, Seed: 7}
	for _, k := range kernels {
		got, err := Analyze(machineFor(t, k.name, k.src), cfg)
		if err != nil {
			t.Fatal(err)
		}
		char := characterizeKernel(t, k.name, k.src, cfg)
		want := jointOracle([]benchIntervals{{Name: k.name, Result: char}}, cfg)
		if got.K != want.K || !reflect.DeepEqual(got.Assign, want.Assign) {
			t.Errorf("%s: assignment diverges from the oracle (K %d vs %d)", k.name, got.K, want.K)
		}
		if !reflect.DeepEqual(got.Vectors.Data, char.Vectors.Data) {
			t.Errorf("%s: analyzed vectors diverge from the characterization", k.name)
		}
		if len(got.Representatives) != len(want.Representatives) {
			t.Fatalf("%s: %d representatives vs %d in the oracle", k.name,
				len(got.Representatives), len(want.Representatives))
		}
		for i, wr := range want.Representatives {
			gr := got.Representatives[i]
			if gr.Phase != wr.Phase || gr.Interval != wr.Row || gr.Weight != wr.Weight || wr.Bench != 0 {
				t.Errorf("%s: representative %d = %+v, oracle %+v", k.name, i, gr, wr)
			}
		}
	}
}

// TestAnalyzeJointProvenanceAndOccupancy checks the multi-benchmark
// invariants: rows concatenate in input order with correct provenance,
// occupancy rows sum to 1, and every representative's provenance
// agrees with its row.
func TestAnalyzeJointProvenanceAndOccupancy(t *testing.T) {
	cfg := Config{IntervalLen: 2_000, MaxIntervals: 15, MaxK: 5, Seed: 3}
	inputs := []benchIntervals{
		{Name: "twophase", Result: characterizeKernel(t, "twophase", twoPhaseProgram, cfg)},
		{Name: "strided", Result: characterizeKernel(t, "strided", stridedProgram, cfg)},
		{Name: "branchy", Result: characterizeKernel(t, "branchy", branchyProgram, cfg)},
	}
	mem := memFrom(t, inputs)
	joint, _, err := AnalyzeJointStore(t.Context(), mem, cfg, 0, nil)
	if err != nil {
		t.Fatal(err)
	}

	wantRows := 0
	for _, in := range inputs {
		wantRows += len(in.Result.Intervals)
	}
	if len(joint.Rows) != wantRows || len(joint.Assign) != wantRows || len(joint.RowInsts) != wantRows {
		t.Fatalf("joint shapes: rows=%d assign=%d insts=%d want %d",
			len(joint.Rows), len(joint.Assign), len(joint.RowInsts), wantRows)
	}

	// Provenance: row r of the joint matrix is bench b's interval i,
	// vector (as the source holds it) and instruction count included.
	r := 0
	for b, in := range inputs {
		sd, err := mem.ReadShard(b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range in.Result.Intervals {
			ref := joint.Rows[r]
			if ref.Bench != b || ref.Interval != i {
				t.Fatalf("row %d provenance = %+v, want bench %d interval %d", r, ref, b, i)
			}
			if !reflect.DeepEqual(sd.Vecs.Row(ref.Interval), in.Result.Vectors.Row(i)) {
				t.Fatalf("row %d vector diverges from %s interval %d", r, in.Name, i)
			}
			if joint.RowInsts[r] != in.Result.Intervals[i].Insts {
				t.Fatalf("row %d insts diverge", r)
			}
			r++
		}
	}

	// Occupancy: one row per benchmark, each summing to 1.
	if joint.Occupancy.Rows != len(inputs) || joint.Occupancy.Cols != joint.K {
		t.Fatalf("occupancy is %dx%d, want %dx%d",
			joint.Occupancy.Rows, joint.Occupancy.Cols, len(inputs), joint.K)
	}
	for b := range inputs {
		sum := 0.0
		for c := 0; c < joint.K; c++ {
			share := joint.PhaseShare(b, c)
			if share < 0 || share > 1+1e-12 {
				t.Errorf("occupancy[%d][%d] = %g out of range", b, c, share)
			}
			sum += share
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("benchmark %d occupancy sums to %g", b, sum)
		}
	}

	// Representatives: weights sum to 1, provenance consistent, sorted
	// by descending weight.
	sum := 0.0
	for i, rep := range joint.Representatives {
		if joint.Rows[rep.Row] != (RowRef{Bench: rep.Bench, Interval: rep.Interval}) {
			t.Errorf("representative %d provenance inconsistent: %+v vs %+v",
				i, rep, joint.Rows[rep.Row])
		}
		if joint.Assign[rep.Row] != rep.Phase {
			t.Errorf("representative %d not a member of its phase", i)
		}
		if i > 0 && rep.Weight > joint.Representatives[i-1].Weight {
			t.Errorf("representatives not sorted by weight")
		}
		sum += rep.Weight
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("representative weights sum to %g", sum)
	}

	// The compute-vs-memory contrast that separates phases within one
	// benchmark must survive jointly: twophase's two behaviors may not
	// collapse into one shared phase.
	if joint.K < 2 {
		t.Errorf("joint K = %d for three behaviorally distinct kernels", joint.K)
	}
}

// TestAnalyzeJointSharedVocabulary pins the point of the joint space:
// the SAME phase id is assigned to behaviorally identical intervals
// from different benchmarks. Two copies of the same kernel must have
// identical occupancy rows.
func TestAnalyzeJointSharedVocabulary(t *testing.T) {
	cfg := Config{IntervalLen: 2_000, MaxIntervals: 12, MaxK: 4, Seed: 5}
	a := characterizeKernel(t, "copyA", twoPhaseProgram, cfg)
	b := characterizeKernel(t, "copyB", twoPhaseProgram, cfg)
	joint, _, err := AnalyzeJointStore(t.Context(), memFrom(t, []benchIntervals{
		{Name: "copyA", Result: a}, {Name: "copyB", Result: b},
	}), cfg, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	nA := len(a.Intervals)
	for i := range b.Intervals {
		if joint.Assign[i] != joint.Assign[nA+i] {
			t.Fatalf("interval %d: identical traces assigned phases %d and %d",
				i, joint.Assign[i], joint.Assign[nA+i])
		}
	}
	for c := 0; c < joint.K; c++ {
		if math.Abs(joint.PhaseShare(0, c)-joint.PhaseShare(1, c)) > 1e-12 {
			t.Fatalf("identical benchmarks have different occupancy of phase %d", c)
		}
	}
}

// TestAnalyzeJointRejectsBadInput: zero benchmarks and benchmarks
// without characterized intervals fail loudly.
func TestAnalyzeJointRejectsBadInput(t *testing.T) {
	if _, _, err := AnalyzeJointStore(t.Context(), ivstore.NewMem(nil), Config{}, 0, nil); err == nil {
		t.Error("zero benchmarks accepted")
	}
	mem := ivstore.NewMem([]string{"x"})
	if err := mem.WriteShard("x", nil, &stats.Matrix{Cols: mica.NumChars}); err == nil {
		t.Error("uncharacterized benchmark accepted")
	}
	if err := mem.WriteShard("x", nil, nil); err == nil {
		t.Error("nil result accepted")
	}
}
