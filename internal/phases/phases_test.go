package phases

import (
	"math"
	"reflect"
	"testing"

	"mica/internal/asm"
	"mica/internal/mica"
	"mica/internal/vm"
)

// twoPhaseProgram alternates between a compute-heavy phase and a
// memory-streaming phase, each lasting ~25k instructions, repeated
// indefinitely.
const twoPhaseProgram = `
	.data
arr:	.space 1048576
	.text
main:
outer:	lda	r1, 6000	# compute phase iterations
comp:	addq	r2, 1, r2
	mulq	r2, 17, r3
	xor	r3, r2, r4
	subq	r1, 1, r1
	bgt	r1, comp
	lda	r1, 6000	# memory phase iterations
	lda	r5, arr
mem:	ldq	r6, 0(r5)
	addq	r6, 1, r6
	stq	r6, 0(r5)
	addq	r5, 64, r5
	subq	r1, 1, r1
	bgt	r1, mem
	br	outer
`

// stridedProgram streams two interleaved store patterns with different
// strides — a memory-dominated single-phase workload.
const stridedProgram = `
	.data
buf:	.space 524288
	.text
main:	lda	r5, buf
	lda	r7, buf
loop:	ldq	r1, 0(r5)
	addq	r1, 3, r1
	stq	r1, 0(r5)
	addq	r5, 8, r5
	stq	r1, 0(r7)
	addq	r7, 4096, r7
	and	r7, 262143, r8
	bgt	r8, noreset
	lda	r7, buf
noreset:	br	loop
`

// branchyProgram exercises data-dependent branches — a
// predictability-limited workload for the PPM analyzers.
const branchyProgram = `
	.text
main:	lda	r1, 0
loop:	addq	r1, 1, r1
	mulq	r1, 2654435761, r2
	srl	r2, 13, r2
	and	r2, 7, r3
	beq	r3, even
	addq	r4, 1, r4
	br	next
even:	subq	r4, 1, r4
next:	and	r1, 1023, r5
	bgt	r5, loop
	xor	r4, r1, r6
	br	loop
`

func machineFor(t *testing.T, name, src string) *vm.Machine {
	t.Helper()
	prog, err := asm.Assemble(name, src)
	if err != nil {
		t.Fatal(err)
	}
	return vm.New(prog)
}

func newMachine(t *testing.T) *vm.Machine {
	return machineFor(t, "twophase", twoPhaseProgram)
}

func TestAnalyzeFindsTwoPhases(t *testing.T) {
	m := newMachine(t)
	res, err := Analyze(m, Config{
		IntervalLen:  5_000,
		MaxIntervals: 40,
		MaxK:         6,
		Seed:         1,
		Options:      mica.DefaultOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Intervals) != 40 {
		t.Fatalf("got %d intervals, want 40", len(res.Intervals))
	}
	if res.Vectors.Rows != 40 || res.Vectors.Cols != mica.NumChars {
		t.Fatalf("vector matrix is %dx%d", res.Vectors.Rows, res.Vectors.Cols)
	}
	if res.K < 2 {
		t.Errorf("K = %d, want >= 2 distinct phases", res.K)
	}
	// Compute intervals have ~0 loads; memory intervals have many. The
	// clustering must separate the two extremes.
	var loadHeavy, loadLight int
	for i := range res.Intervals {
		if pctLoads := res.Vectors.At(i, 0); pctLoads > 0.15 {
			loadHeavy = res.Assign[i]
		} else if pctLoads < 0.05 {
			loadLight = res.Assign[i]
		}
	}
	if loadHeavy == loadLight {
		t.Error("memory-bound and compute-bound intervals share a phase")
	}
}

// TestStreamingPooledMatchesUnpooled is the differential contract of
// the streaming rewrite: one profiler reused (Reset) across all
// intervals must produce bit-identical interval vectors, assignments
// and representatives to the reference path that allocates a fresh
// profiler per interval, across kernels with different behaviours.
func TestStreamingPooledMatchesUnpooled(t *testing.T) {
	kernels := []struct{ name, src string }{
		{"twophase", twoPhaseProgram},
		{"strided", stridedProgram},
		{"branchy", branchyProgram},
	}
	cfg := Config{IntervalLen: 2_000, MaxIntervals: 25, MaxK: 4, Seed: 7}
	for _, k := range kernels {
		got, err := Analyze(machineFor(t, k.name, k.src), cfg)
		if err != nil {
			t.Fatalf("%s: streaming: %v", k.name, err)
		}
		want, err := AnalyzeUnpooled(machineFor(t, k.name, k.src), cfg)
		if err != nil {
			t.Fatalf("%s: unpooled: %v", k.name, err)
		}
		if !reflect.DeepEqual(got.Vectors.Data, want.Vectors.Data) {
			t.Errorf("%s: interval vectors diverge from unpooled reference", k.name)
		}
		if !reflect.DeepEqual(got.Intervals, want.Intervals) {
			t.Errorf("%s: interval metadata diverges", k.name)
		}
		if got.K != want.K || !reflect.DeepEqual(got.Assign, want.Assign) {
			t.Errorf("%s: phase assignment diverges (K %d vs %d)", k.name, got.K, want.K)
		}
		if !reflect.DeepEqual(got.Representatives, want.Representatives) {
			t.Errorf("%s: representatives diverge", k.name)
		}
	}
}

// TestPooledProfilerAcrossBenchmarks reuses ONE profiler for several
// different programs in sequence (the registry-pipeline worker pattern)
// and requires intervals and vectors identical to per-program fresh
// analysis.
func TestPooledProfilerAcrossBenchmarks(t *testing.T) {
	kernels := []struct{ name, src string }{
		{"branchy", branchyProgram},
		{"twophase", twoPhaseProgram},
		{"strided", stridedProgram},
	}
	cfg := Config{IntervalLen: 2_000, MaxIntervals: 15, MaxK: 4, Seed: 11}
	shared := mica.NewProfiler(cfg.Options)
	for _, k := range kernels {
		got, err := CharacterizeWith(machineFor(t, k.name, k.src), shared, cfg)
		if err != nil {
			t.Fatalf("%s: pooled: %v", k.name, err)
		}
		want, err := Analyze(machineFor(t, k.name, k.src), cfg)
		if err != nil {
			t.Fatalf("%s: fresh: %v", k.name, err)
		}
		if !reflect.DeepEqual(got.Intervals, want.Intervals) || !reflect.DeepEqual(got.Vectors, want.Vectors) {
			t.Errorf("%s: cross-benchmark pooled characterization diverges from fresh analysis", k.name)
		}
	}
}

// pingPongProgram serializes every iteration through one memory cell:
// each load reads the previous iteration's store, so the store-to-load
// dependence is the binding constraint on ILP. (Registry kernels never
// make memory deps binding in the unit-latency idealized model, so this
// crafted kernel is the observable for NoMemDeps.)
const pingPongProgram = `
	.data
cell:	.space 64
	.text
main:	lda	r5, cell
loop:	ldq	r1, 0(r5)
	addq	r1, 1, r1
	stq	r1, 0(r5)
	br	loop
`

// TestNoMemDepsHonored pins that Config.Options.NoMemDeps reaches the
// interval profiler: disabling store-to-load tracking must visibly
// raise the measured ILP of a memory-serialized kernel.
func TestNoMemDepsHonored(t *testing.T) {
	cfg := Config{IntervalLen: 2_000, MaxIntervals: 4, MaxK: 2, Seed: 3}
	base, err := Analyze(machineFor(t, "pingpong", pingPongProgram), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Options.NoMemDeps = true
	free, err := Analyze(machineFor(t, "pingpong", pingPongProgram), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range free.Intervals {
		ilpFree, ilpBase := free.Vectors.At(i, 9), base.Vectors.At(i, 9) // ILP-256
		if ilpFree <= ilpBase {
			t.Fatalf("interval %d: ILP %g with mem deps ignored vs %g tracked — option not honored",
				i, ilpFree, ilpBase)
		}
	}
}

func TestRepresentativeWeightsSumToOne(t *testing.T) {
	m := newMachine(t)
	res, err := Analyze(m, Config{IntervalLen: 5_000, MaxIntervals: 30, MaxK: 5, Seed: 2,
		Options: mica.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, rep := range res.Representatives {
		if rep.Weight <= 0 || rep.Weight > 1 {
			t.Errorf("representative weight %g out of range", rep.Weight)
		}
		if rep.Interval < 0 || rep.Interval >= len(res.Intervals) {
			t.Errorf("representative interval %d out of range", rep.Interval)
		}
		if res.Assign[rep.Interval] != rep.Phase {
			t.Error("representative not a member of its phase")
		}
		sum += rep.Weight
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum to %g, want 1", sum)
	}
	// Ordered by descending weight.
	for i := 1; i < len(res.Representatives); i++ {
		if res.Representatives[i].Weight > res.Representatives[i-1].Weight {
			t.Error("representatives not sorted by weight")
		}
	}
}

// shortTailProgram runs ~5k compute instructions, then a short ~1.25k
// memory burst, then halts — so the final (memory) interval is shorter
// than IntervalLen and instruction weighting visibly diverges from
// interval-count weighting.
const shortTailProgram = `
	.data
arr:	.space 65536
	.text
main:	lda	r1, 1000
comp:	addq	r2, 1, r2
	mulq	r2, 17, r3
	xor	r3, r2, r4
	subq	r1, 1, r1
	bgt	r1, comp
	lda	r1, 250
	lda	r5, arr
mem:	ldq	r6, 0(r5)
	stq	r6, 8(r5)
	addq	r5, 16, r5
	subq	r1, 1, r1
	bgt	r1, mem
	halt
`

// TestWeightsAreInstructionFractions pins the representative weighting
// rule: each phase's weight is its share of dynamic INSTRUCTIONS, not
// its share of intervals, so a short trailing interval is not
// over-weighted.
func TestWeightsAreInstructionFractions(t *testing.T) {
	m := machineFor(t, "shorttail", shortTailProgram)
	res, err := Analyze(m, Config{IntervalLen: 2_500, MaxIntervals: 10, MaxK: 3, Seed: 5,
		Options: mica.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	last := res.Intervals[len(res.Intervals)-1]
	if last.Insts >= 2_500 {
		t.Fatalf("test premise broken: trailing interval has %d instructions", last.Insts)
	}

	instsIn := make(map[int]uint64)
	countIn := make(map[int]int)
	var total uint64
	for i, c := range res.Assign {
		instsIn[c] += res.Intervals[i].Insts
		countIn[c]++
		total += res.Intervals[i].Insts
	}
	instWeightDiffers := false
	for _, rep := range res.Representatives {
		want := float64(instsIn[rep.Phase]) / float64(total)
		if rep.Weight != want {
			t.Errorf("phase %d: weight %g, want instruction share %g", rep.Phase, rep.Weight, want)
		}
		byCount := float64(countIn[rep.Phase]) / float64(len(res.Intervals))
		if math.Abs(rep.Weight-byCount) > 1e-9 {
			instWeightDiffers = true
		}
	}
	if res.K >= 2 && !instWeightDiffers {
		t.Error("instruction weighting indistinguishable from interval-count weighting despite short tail")
	}
}

func TestWeightedVectorApproximatesFullTrace(t *testing.T) {
	m := newMachine(t)
	res, err := Analyze(m, Config{IntervalLen: 5_000, MaxIntervals: 40, MaxK: 6, Seed: 3,
		Options: mica.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	approx := res.WeightedVector()

	// Full-trace measurement over the same instruction count.
	m2 := newMachine(t)
	prof := mica.NewProfiler(mica.DefaultOptions())
	if _, err := m2.Run(200_000, prof); err != vm.ErrBudget {
		t.Fatal(err)
	}
	full := prof.Vector()

	// The phase-weighted mix estimate must track the true mix closely
	// (instruction-mix fractions are linear over intervals).
	for c := 0; c < 6; c++ {
		if math.Abs(approx[c]-full[c]) > 0.05 {
			t.Errorf("%s: weighted %g vs full %g", mica.CharName(c), approx[c], full[c])
		}
	}
	// And the in-analysis reconstruction error against the interval
	// aggregate must be small for the linear mix characteristics too.
	fullEst := res.FullVector()
	for c := 0; c < 6; c++ {
		if math.Abs(fullEst[c]-full[c]) > 0.05 {
			t.Errorf("%s: FullVector %g vs measured %g", mica.CharName(c), fullEst[c], full[c])
		}
	}
	if res.ReconstructionError() < 0 {
		t.Error("negative reconstruction error")
	}
}

func TestHaltingProgramStopsEarly(t *testing.T) {
	prog, err := asm.Assemble("short", `
main:	lda  r1, 100
loop:	subq r1, 1, r1
	bgt  r1, loop
	halt
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(vm.New(prog), Config{IntervalLen: 50, MaxIntervals: 100, MaxK: 3, Seed: 4,
		Options: mica.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	// 201 instructions -> 5 intervals (last one short).
	if len(res.Intervals) < 4 || len(res.Intervals) > 6 {
		t.Errorf("got %d intervals for a 201-instruction program", len(res.Intervals))
	}
	last := res.Intervals[len(res.Intervals)-1]
	if last.Insts == 0 {
		t.Error("empty trailing interval recorded")
	}
}

func TestEmptyProgramErrors(t *testing.T) {
	prog, err := asm.Assemble("empty", "main:\thalt\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(vm.New(prog), Config{Options: mica.DefaultOptions()}); err == nil {
		t.Error("program with no instructions accepted")
	}
}

// TestConfigZeroValueIsDefault pins the default story the package
// comment tells: the zero Config normalized by WithDefaults IS
// DefaultConfig, knob for knob — including the knobs newer subsystems
// (the reduced pipeline, the interval-vector store) key caches and
// shard stamps on, which hash the normalized form.
func TestConfigZeroValueIsDefault(t *testing.T) {
	got, want := (Config{}).WithDefaults(), DefaultConfig()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Config{}.WithDefaults() = %+v, want DefaultConfig() %+v", got, want)
	}
	if want.IntervalLen != 10_000 || want.MaxIntervals != 100 || want.MaxK != 10 {
		t.Fatalf("DefaultConfig = %+v diverges from the documented defaults", want)
	}
	// The default options measure everything: the zero Options value
	// means all 47 characteristics with memory dependencies tracked.
	if want.Options.NoMemDeps || want.Options.Subset != nil || want.Options.PPMOrder != 0 {
		t.Fatalf("DefaultConfig options %+v are not the measure-everything zero value", want.Options)
	}
}
