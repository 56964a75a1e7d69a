// Reduced (phase-aware) profiling: the SimPoint-style payoff of phase
// analysis, driven by the paper's own key-characteristic claim. A cheap
// first pass streams the interval grid measuring only a small
// characteristic subset (by default the paper's Table IV GA-selected 8)
// on a sampled prefix of each interval, the intervals are clustered
// into phases with the existing engines, and a second pass re-executes
// the trace paying the full 47-characteristic + EV56/EV67 HPC
// characterization only on a few measured intervals per phase —
// everything else is fast-forwarded at bare-interpreter speed. The
// whole-run characteristic and HPC vectors are then extrapolated as
// phase-weighted sums of the per-phase measurement means, with
// per-metric relative error scored against the exact matched-grid
// full profile (CharacterizeExact).
package phases

import (
	"errors"
	"fmt"
	"math"

	"mica/internal/mica"
	"mica/internal/obs"
	"mica/internal/stats"
	"mica/internal/trace"
	"mica/internal/uarch"
)

// KeyCharacteristics returns the indices of the paper's 8 GA-selected
// key microarchitecture-independent characteristics (Table IV): the
// subset the paper shows positions a workload almost as well as all 47,
// at a fraction of the measurement cost. The reduced pipeline's cheap
// pass measures exactly these by default.
func KeyCharacteristics() []int {
	return []int{
		mica.CharPctLoads,
		mica.CharAvgInputOperands,
		mica.CharDepDistLE8,
		mica.CharLocalLoadStrideLE64,
		mica.CharGlobalLoadStrideLE512,
		mica.CharLocalStoreStrideLE4096,
		mica.CharDWSPages,
		mica.CharILP256,
	}
}

// KeySubset returns KeyCharacteristics as a Subset mask for
// mica.Options.
func KeySubset() []bool {
	s := make([]bool, mica.NumChars)
	for _, c := range KeyCharacteristics() {
		s[c] = true
	}
	return s
}

// DefaultSampleFrac is the fraction of each interval the cheap pass
// observes by default. The sampled prefix is used only to position the
// interval in the phase space; the expensive pass re-measures whole
// intervals, so sampling noise can only affect which intervals are
// chosen, never what is measured on them.
const DefaultSampleFrac = 0.2

// DefaultRepsPerPhase is how many intervals per phase the expensive
// pass measures by default. Averaging a few independent draws per
// phase beats a single simulation point: within-phase variance of the
// extrapolated metrics shrinks with the square root of the count while
// the replay still fast-forwards the overwhelming majority of the
// trace.
const DefaultRepsPerPhase = 3

// ReducedConfig parameterizes reduced profiling.
type ReducedConfig struct {
	// Phase is the interval grid and clustering configuration. Its
	// Options seed the cheap-pass profiler (PPM order, memory-dependence
	// tracking), except that Options.Subset is always replaced by
	// Subset below.
	Phase Config
	// Subset selects the cheap-pass characteristics; nil means
	// KeySubset(), the paper's 8.
	Subset []bool
	// SampleFrac is the fraction of each interval the cheap pass
	// observes (the rest of the interval executes unobserved); 0 means
	// DefaultSampleFrac, 1 observes every instruction.
	SampleFrac float64
	// RepsPerPhase bounds how many intervals per phase the expensive
	// pass measures; 0 means DefaultRepsPerPhase.
	RepsPerPhase int
	// FullOptions configures the expensive-pass profiler; the zero
	// value measures all 47 characteristics at the default PPM order
	// with memory dependencies tracked.
	FullOptions mica.Options
	// SkipHPC disables the EV56/EV67 machine models on the expensive
	// pass.
	SkipHPC bool
}

// WithDefaults returns c with zero fields replaced by the documented
// defaults — the normalized form reduced caches are keyed on.
func (c ReducedConfig) WithDefaults() ReducedConfig {
	c.Phase = c.Phase.WithDefaults()
	if c.Subset == nil {
		c.Subset = KeySubset()
	}
	// Out-of-range knobs are clamped, not trusted: a negative sample
	// fraction or reps count would otherwise survive into slice bounds
	// and uint64 conversions (and into cache keys).
	if c.SampleFrac <= 0 {
		c.SampleFrac = DefaultSampleFrac
	}
	if c.SampleFrac > 1 {
		c.SampleFrac = 1
	}
	if c.RepsPerPhase <= 0 {
		c.RepsPerPhase = DefaultRepsPerPhase
	}
	return c
}

// Validate returns an error unless the options of both passes are
// valid (mica.Options.Validate).
func (c ReducedConfig) Validate() error {
	if err := c.Phase.Options.Validate(); err != nil {
		return err
	}
	return c.FullOptions.Validate()
}

// CheapConfig returns the effective cheap-pass phase configuration:
// Phase with Options.Subset replaced by the reduced subset. This is the
// configuration the cheap vocabulary is clustered — and cached — under.
func (c ReducedConfig) CheapConfig() Config {
	c = c.WithDefaults()
	cfg := c.Phase
	cfg.Options.Subset = c.Subset
	return cfg
}

// sampleLen returns how many instructions of an IntervalLen-instruction
// interval the cheap pass observes.
func (c ReducedConfig) sampleLen() uint64 {
	n := uint64(float64(c.Phase.IntervalLen) * c.SampleFrac)
	if n < 1 {
		n = 1
	}
	if n > c.Phase.IntervalLen {
		n = c.Phase.IntervalLen
	}
	return n
}

// MeasuredInterval is one interval the expensive pass characterized in
// full.
type MeasuredInterval struct {
	// Interval is the interval's index in the grid.
	Interval int
	// Phase is the cheap-pass phase the interval belongs to.
	Phase int
	// Insts is the interval's instruction count.
	Insts uint64
	// Chars is the full 47-characteristic measurement; HPC the machine
	// model metrics (zero when HPC was skipped).
	Chars mica.Vector
	HPC   uarch.HPCVector
}

// ReducedResult is the outcome of reduced profiling for one benchmark.
type ReducedResult struct {
	// Phases is the cheap-pass phase decomposition: interval vectors
	// hold the sampled subset characteristics (zero outside the
	// subset).
	Phases *Result
	// Measured holds the expensive-pass interval measurements, in
	// interval order: up to RepsPerPhase intervals per phase, closest
	// to the phase mean in the cheap space.
	Measured []MeasuredInterval
	// HasHPC reports whether the machine models ran on the expensive
	// pass.
	HasHPC bool
	// Chars and HPC are the whole-run extrapolations: phase-weighted
	// sums of the per-phase measurement means.
	Chars mica.Vector
	HPC   uarch.HPCVector
	// SampledInsts is how many instructions the cheap pass observed.
	SampledInsts uint64
	// MeasuredInsts is how many instructions the expensive pass
	// characterized.
	MeasuredInsts uint64
	// SkippedInsts is how many instructions the expensive pass
	// fast-forwarded unobserved.
	SkippedInsts uint64
}

// TotalInsts returns the trace length covered by the interval grid.
func (r *ReducedResult) TotalInsts() uint64 { return r.Phases.TotalInsts() }

// AnalyzeReduced runs the full two-pass reduced pipeline. cheap and
// replay must be two freshly instantiated sources of the same
// program: the first carries the cheap sampled pass, the second the
// measurement replay (the VM is deterministic, so both traverse the
// identical trace).
func AnalyzeReduced(cheap, replay trace.Source, cfg ReducedConfig) (*ReducedResult, error) {
	cfg = cfg.WithDefaults()
	return AnalyzeReducedWith(cheap, replay,
		mica.NewProfiler(cfg.CheapConfig().Options), mica.NewProfiler(cfg.FullOptions), cfg)
}

// AnalyzeReducedWith is AnalyzeReduced with caller-supplied cheap- and
// full-pass profilers, which must have been built from
// CheapConfig().Options and FullOptions respectively. Both are Reset
// before every interval they observe, so pooled profilers arrive clean
// — the mechanism the registry-wide reduced pipeline uses to share
// analyzer tables across benchmarks.
func AnalyzeReducedWith(cheap, replay trace.Source, cheapProf, fullProf *mica.Profiler, cfg ReducedConfig) (*ReducedResult, error) {
	cfg = cfg.WithDefaults()
	ph, sampled, err := characterizeReduced(cheap, cheapProf, cfg)
	if err != nil {
		return nil, err
	}
	ph.cluster(cfg.CheapConfig())
	rr, err := ReplayReduced(replay, fullProf, ph, cfg)
	if err != nil {
		return nil, err
	}
	rr.SampledInsts = sampled
	return rr, nil
}

// CharacterizeReducedWith is the cheap pass alone: the sampled
// subset-characteristic interval grid, without clustering. Joint
// reduced pipelines use it to characterize each benchmark before
// clustering all intervals at once. The profiler must have been built
// from CheapConfig().Options; it is Reset before every interval.
func CharacterizeReducedWith(m trace.Source, prof *mica.Profiler, cfg ReducedConfig) (*Result, error) {
	cfg = cfg.WithDefaults()
	res, _, err := characterizeReduced(m, prof, cfg)
	return res, err
}

// characterizeReduced streams the interval grid, observing only the
// first sampleLen instructions of each interval with the (Reset) cheap
// profiler and fast-forwarding the rest. With SampleFrac == 1 it is
// bit-identical to the plain streaming characterize, which is what
// lets a cached unsampled phase vocabulary stand in for the cheap
// pass. Interval.Insts always records the interval's full instruction
// count — the quantity weights and the replay grid are built from.
func characterizeReduced(m trace.Source, prof *mica.Profiler, cfg ReducedConfig) (*Result, uint64, error) {
	span := obs.StartSpan("phases.characterize")
	defer span.End()
	pcfg := cfg.Phase
	sample := cfg.sampleLen()
	res := &Result{}
	var vecs []float64
	var start, sampled uint64
	for i := 0; i < pcfg.MaxIntervals; i++ {
		prof.Reset()
		n, err := m.Run(sample, prof)
		sampled += n
		if n == sample && err != nil && errors.Is(err, trace.ErrBudget) && sample < pcfg.IntervalLen {
			var rest uint64
			rest, err = m.Run(pcfg.IntervalLen-sample, nil)
			n += rest
		}
		if n > 0 {
			v := prof.Vector()
			vecs = append(vecs, v[:]...)
			res.Intervals = append(res.Intervals, Interval{Index: i, Start: start, Insts: n})
			start += n
		}
		if err == nil {
			break // program halted
		}
		if !errors.Is(err, trace.ErrBudget) {
			return nil, 0, fmt.Errorf("phases: reduced interval %d: %w", i, err)
		}
	}
	if len(res.Intervals) == 0 {
		return nil, 0, fmt.Errorf("phases: program produced no instructions")
	}
	metIntervals.Add(float64(len(res.Intervals)))
	res.Vectors = &stats.Matrix{Rows: len(res.Intervals), Cols: mica.NumChars, Data: vecs}
	return res, sampled, nil
}

// measureInterval runs one interval under the full profiler (Reset
// first) plus a fresh HPC profiler unless skipped, returning the
// measured vectors. Shared by the per-benchmark replay, the joint
// replay and the exact-grid oracle so the three stay in lockstep — the
// reduced-vs-exact differential depends on them measuring identically.
func measureInterval(m trace.Source, fullProf *mica.Profiler, skipHPC bool, insts uint64) (uint64, mica.Vector, uarch.HPCVector, error) {
	fullProf.Reset()
	var obs trace.Observer = fullProf
	var hpc *uarch.HPCProfiler
	if !skipHPC {
		hpc = uarch.NewHPCProfiler()
		obs = trace.Multi{fullProf, hpc}
	}
	n, err := m.Run(insts, obs)
	var hv uarch.HPCVector
	if hpc != nil {
		hv = hpc.Vector()
	}
	return n, fullProf.Vector(), hv, err
}

// measurementPlan selects which intervals the expensive pass measures:
// for each phase, the reps intervals closest to the phase's mean in
// the z-scored cheap space (ties broken by ascending interval index).
// Returned as a map from interval index to phase.
func measurementPlan(ph *Result, reps int) map[int]int {
	return measurementPlanRows(stats.ZScoreNormalize(ph.Vectors), ph.Assign, ph.K, reps)
}

// ReplayReduced is the expensive pass: it re-executes the trace over
// the cheap pass's interval grid, characterizing only the planned
// intervals (up to RepsPerPhase per phase) with the full profiler plus
// the EV56/EV67 machine models (unless skipped), fast-forwarding every
// other interval, then extrapolates the whole-run vectors as
// phase-weighted sums of the per-phase measurement means. The profiler
// must have been built from cfg.FullOptions; it is Reset before every
// measured interval.
func ReplayReduced(m trace.Source, fullProf *mica.Profiler, ph *Result, cfg ReducedConfig) (*ReducedResult, error) {
	span := obs.StartSpan("phases.replay")
	defer span.End()
	cfg = cfg.WithDefaults()
	rr := &ReducedResult{Phases: ph, HasHPC: !cfg.SkipHPC}
	// Reconstruct the cheap pass's observation count from the grid: it
	// observed min(sampleLen, Insts) of every interval. Replays driven
	// off a cached vocabulary get correct cost accounting this way even
	// though their cheap pass ran in another process.
	sample := cfg.sampleLen()
	for _, iv := range ph.Intervals {
		if iv.Insts < sample {
			rr.SampledInsts += iv.Insts
		} else {
			rr.SampledInsts += sample
		}
	}
	plan := measurementPlan(ph, cfg.RepsPerPhase)
	for i, iv := range ph.Intervals {
		phase, wanted := plan[i]
		if !wanted {
			n, err := m.Run(iv.Insts, nil)
			rr.SkippedInsts += n
			if err := replayCheck(i, iv, n, err); err != nil {
				return nil, err
			}
			continue
		}
		n, chars, hv, err := measureInterval(m, fullProf, cfg.SkipHPC, iv.Insts)
		rr.MeasuredInsts += n
		if err := replayCheck(i, iv, n, err); err != nil {
			return nil, err
		}
		rr.Measured = append(rr.Measured, MeasuredInterval{
			Interval: i, Phase: phase, Insts: iv.Insts, Chars: chars, HPC: hv,
		})
	}
	rr.extrapolate()
	return rr, nil
}

// extrapolate fills the whole-run vectors: each phase's estimate is
// the instruction-weighted mean of its measured intervals, and the
// whole run is the phase-instruction-share-weighted sum of the phase
// estimates.
func (r *ReducedResult) extrapolate() {
	ph := r.Phases
	instsIn := make([]uint64, ph.K)
	for i, c := range ph.Assign {
		instsIn[c] += ph.Intervals[i].Insts
	}
	total := ph.TotalInsts()
	measuredIn := make([]uint64, ph.K)
	for _, mi := range r.Measured {
		measuredIn[mi.Phase] += mi.Insts
	}
	// Phase estimates first (instruction-weighted means of each phase's
	// measured intervals), then the phase-share-weighted sum — the same
	// association order as the joint extrapolation, so a
	// single-benchmark joint reduction is bit-identical to this one.
	phaseChars := make([]mica.Vector, ph.K)
	phaseHPC := make([]uarch.HPCVector, ph.K)
	for _, mi := range r.Measured {
		w := float64(mi.Insts) / float64(measuredIn[mi.Phase])
		for c := range phaseChars[mi.Phase] {
			phaseChars[mi.Phase][c] += w * mi.Chars[c]
		}
		if r.HasHPC {
			for c := range phaseHPC[mi.Phase] {
				phaseHPC[mi.Phase][c] += w * mi.HPC[c]
			}
		}
	}
	r.Chars = mica.Vector{}
	r.HPC = uarch.HPCVector{}
	for p := 0; p < ph.K; p++ {
		if instsIn[p] == 0 {
			continue
		}
		w := float64(instsIn[p]) / float64(total)
		for c := range r.Chars {
			r.Chars[c] += w * phaseChars[p][c]
		}
		if r.HasHPC {
			for c := range r.HPC {
				r.HPC[c] += w * phaseHPC[p][c]
			}
		}
	}
}

// replayCheck verifies the replay pass retired exactly the interval's
// instruction count — the determinism contract between the two passes.
func replayCheck(i int, iv Interval, n uint64, err error) error {
	if err != nil && !errors.Is(err, trace.ErrBudget) {
		return fmt.Errorf("phases: reduced replay interval %d: %w", i, err)
	}
	if n != iv.Insts {
		return fmt.Errorf("phases: reduced replay diverged at interval %d: retired %d instructions, cheap pass saw %d",
			i, n, iv.Insts)
	}
	return nil
}

// ExactProfile is the matched-grid full characterization the reduced
// extrapolation is evaluated against: every interval measured with the
// full profiler and machine models, aggregated as the
// instruction-weighted mean — exactly what the reduced extrapolation
// converges to when every interval is measured.
type ExactProfile struct {
	Chars mica.Vector
	HPC   uarch.HPCVector
	// Intervals is the grid the exact profile was measured over.
	Intervals []Interval
}

// TotalInsts returns the profiled trace length.
func (e *ExactProfile) TotalInsts() uint64 {
	var n uint64
	for _, iv := range e.Intervals {
		n += iv.Insts
	}
	return n
}

// CharacterizeExact measures the exact matched-grid full profile on a
// freshly instantiated machine: the same interval grid as the reduced
// pipeline, with the full 47-characteristic + HPC characterization
// paid on EVERY interval. It is both the differential-test oracle for
// the reduced extrapolation and the cost baseline BenchmarkReducedPipeline
// measures the reduced speedup against.
func CharacterizeExact(m trace.Source, cfg ReducedConfig) (*ExactProfile, error) {
	cfg = cfg.WithDefaults()
	pcfg := cfg.Phase
	prof := mica.NewProfiler(cfg.FullOptions)
	ex := &ExactProfile{}
	type weighted struct {
		chars mica.Vector
		hpc   uarch.HPCVector
	}
	var rows []weighted
	var start uint64
	for i := 0; i < pcfg.MaxIntervals; i++ {
		n, chars, hv, err := measureInterval(m, prof, cfg.SkipHPC, pcfg.IntervalLen)
		if n > 0 {
			rows = append(rows, weighted{chars: chars, hpc: hv})
			ex.Intervals = append(ex.Intervals, Interval{Index: i, Start: start, Insts: n})
			start += n
		}
		if err == nil {
			break
		}
		if !errors.Is(err, trace.ErrBudget) {
			return nil, fmt.Errorf("phases: exact interval %d: %w", i, err)
		}
	}
	if len(ex.Intervals) == 0 {
		return nil, fmt.Errorf("phases: program produced no instructions")
	}
	total := ex.TotalInsts()
	for i, iv := range ex.Intervals {
		w := float64(iv.Insts) / float64(total)
		for c := range ex.Chars {
			ex.Chars[c] += w * rows[i].chars[c]
		}
		for c := range ex.HPC {
			ex.HPC[c] += w * rows[i].hpc[c]
		}
	}
	return ex, nil
}

// Relative-error scoring. Metrics come in two shapes, and each gets
// the standard treatment for its shape:
//
//   - fraction-valued metrics (instruction-mix shares, dependence
//     distance and stride distribution buckets, PPM and machine-model
//     miss rates) live on [0, 1]; their error is measured against that
//     full range, so a near-empty bucket (exact 0.002) cannot turn a
//     negligible absolute difference into a huge quotient;
//   - unbounded-magnitude metrics (ILP, operand counts, working-set
//     sizes, IPCs) are measured against the exact value, floored far
//     below any value the profilers produce.
const errorFloor = 1e-9

// fractionChar reports whether characteristic c is fraction-valued.
func fractionChar(c int) bool {
	switch {
	case c >= mica.CharPctLoads && c <= mica.CharPctFP:
		return true // instruction mix shares
	case c >= mica.CharDepDistEq1 && c <= mica.CharDepDistLE64:
		return true // dependence distance distribution
	case c >= mica.CharLocalLoadStride0 && c <= mica.CharGlobalStoreStrideLE4096:
		return true // stride distributions
	case c >= mica.CharPPMGAg && c <= mica.CharPPMPAs:
		return true // PPM miss rates
	}
	return false // ILP, register traffic averages, working sets
}

// fractionHPC reports whether HPC metric c is fraction-valued.
func fractionHPC(c int) bool {
	// Everything except the two IPCs is a rate or a mix share.
	return c != uarch.HPCIPCEV56 && c != uarch.HPCIPCEV67
}

// relErr scores got against want: |got-want| over |want| (floored) for
// unbounded metrics, |got-want| itself for fraction-valued ones (the
// denominator is the unit range).
func relErr(got, want float64, fraction bool) float64 {
	if fraction {
		return math.Abs(got - want)
	}
	den := math.Abs(want)
	if den < errorFloor {
		den = errorFloor
	}
	return math.Abs(got-want) / den
}

// CharRelativeError scores one extrapolated characteristic against its
// exact value.
func CharRelativeError(c int, got, want float64) float64 {
	return relErr(got, want, fractionChar(c))
}

// HPCRelativeError scores one extrapolated HPC metric against its
// exact value.
func HPCRelativeError(c int, got, want float64) float64 {
	return relErr(got, want, fractionHPC(c))
}

// CharErrors returns the per-characteristic relative errors of the
// extrapolated whole-run vector against the exact profile.
func (r *ReducedResult) CharErrors(ex *ExactProfile) [mica.NumChars]float64 {
	var out [mica.NumChars]float64
	for c := range out {
		out[c] = CharRelativeError(c, r.Chars[c], ex.Chars[c])
	}
	return out
}

// HPCErrors returns the per-HPC-metric relative errors of the
// extrapolated whole-run vector against the exact profile.
func (r *ReducedResult) HPCErrors(ex *ExactProfile) [uarch.NumHPCMetrics]float64 {
	var out [uarch.NumHPCMetrics]float64
	for c := range out {
		out[c] = HPCRelativeError(c, r.HPC[c], ex.HPC[c])
	}
	return out
}

// MaxRelativeError returns the worst per-metric relative error of the
// reduced extrapolation across the 47 characteristics and (when HPC
// was measured) the 13 HPC metrics.
func (r *ReducedResult) MaxRelativeError(ex *ExactProfile) float64 {
	worst := 0.0
	for _, e := range r.CharErrors(ex) {
		if e > worst {
			worst = e
		}
	}
	if r.HasHPC {
		for _, e := range r.HPCErrors(ex) {
			if e > worst {
				worst = e
			}
		}
	}
	return worst
}

// JointReduced is the outcome of joint reduced profiling: the shared
// cross-benchmark phase vocabulary's measured intervals characterized
// fully ONCE, and every member benchmark's whole-run vectors
// extrapolated from those shared measurements weighted by its
// occupancy row. This is the cross-benchmark redundancy payoff of the
// joint vocabulary: a handful of full interval characterizations for
// the whole benchmark set instead of per benchmark.
type JointReduced struct {
	Joint *JointResult
	// Measured holds the full measurements of the shared phases'
	// chosen intervals (up to RepsPerPhase per phase), annotated with
	// their source benchmark.
	Measured []JointMeasuredInterval
	// HasHPC reports whether the machine models ran.
	HasHPC bool
	// Chars and HPC are the per-benchmark whole-run extrapolations
	// (indexed like Joint.Benchmarks): occupancy-weighted sums of the
	// shared phase estimates.
	Chars []mica.Vector
	HPC   []uarch.HPCVector
	// MeasuredInsts and SkippedInsts account the replay cost: only
	// benchmarks owning a measured interval are re-executed at all.
	MeasuredInsts uint64
	SkippedInsts  uint64
}

// JointMeasuredInterval is one fully characterized interval of a joint
// reduction.
type JointMeasuredInterval struct {
	// Row is the interval's row in the joint matrix; Bench and
	// Interval unpack its provenance.
	Row      int
	Bench    int
	Interval int
	// Phase is the shared phase the row belongs to.
	Phase int
	// Insts is the interval's instruction count.
	Insts uint64
	Chars mica.Vector
	HPC   uarch.HPCVector
}

// jointMeasurementPlan selects the measured rows of a joint
// vocabulary: per shared phase, the RepsPerPhase rows closest to the
// phase mean in the z-scored joint space (ties by ascending row).
// measurementPlan reads only the vectors, assignment and K, so no
// interval grid needs to be materialized.
func jointMeasurementPlan(j *JointResult, reps int) map[int]int {
	return measurementPlan(&Result{Vectors: j.Vectors, Assign: j.Assign, K: j.K}, reps)
}

// ReplayJoint measures the shared phases' chosen intervals and
// extrapolates every member benchmark. sources must return a fresh
// event source for benchmark bi (indexed like j.Benchmarks); it is
// called only for benchmarks that own a measured interval.
func ReplayJoint(j *JointResult, sources func(bench int) (trace.Source, error), cfg ReducedConfig) (*JointReduced, error) {
	cfg = cfg.WithDefaults()
	if j.Vectors == nil {
		return nil, fmt.Errorf("phases: joint replay: vocabulary carries no vectors (store-backed results replay via ReplayJointStore)")
	}
	return replayJointPlan(j, jointMeasurementPlan(j, cfg.RepsPerPhase), sources, cfg)
}

// replayJointPlan is the replay body shared by the in-memory and
// store-backed joint reductions; plan maps joint row index to phase
// and cfg must already carry its defaults.
func replayJointPlan(j *JointResult, plan map[int]int, sources func(bench int) (trace.Source, error), cfg ReducedConfig) (*JointReduced, error) {
	span := obs.StartSpan("phases.replay")
	defer span.End()
	jr := &JointReduced{
		Joint:  j,
		HasHPC: !cfg.SkipHPC,
		Chars:  make([]mica.Vector, len(j.Benchmarks)),
		HPC:    make([]uarch.HPCVector, len(j.Benchmarks)),
	}

	// Group the planned rows by source benchmark; each owning
	// benchmark is replayed once through its interval prefix up to the
	// last measured interval. Joint rows are appended per benchmark in
	// interval order, so a benchmark's interval lengths can be read
	// back off the provenance.
	type target struct {
		interval, row, phase int
	}
	byBench := make(map[int][]target)
	for row, phase := range plan {
		ref := j.Rows[row]
		byBench[ref.Bench] = append(byBench[ref.Bench], target{ref.Interval, row, phase})
	}
	lens := make(map[int][]uint64)
	for r, ref := range j.Rows {
		if _, owns := byBench[ref.Bench]; owns {
			lens[ref.Bench] = append(lens[ref.Bench], j.RowInsts[r])
		}
	}

	prof := mica.NewProfiler(cfg.FullOptions)
	for bi := range j.Benchmarks {
		targets, owns := byBench[bi]
		if !owns {
			continue
		}
		measure := make(map[int]target, len(targets))
		last := 0
		for _, t := range targets {
			measure[t.interval] = t
			if t.interval > last {
				last = t.interval
			}
		}
		m, err := sources(bi)
		if err != nil {
			return nil, fmt.Errorf("phases: joint replay of %s: %w", j.Benchmarks[bi], err)
		}
		for i := 0; i <= last; i++ {
			iv := Interval{Index: i, Insts: lens[bi][i]}
			tgt, wanted := measure[i]
			if !wanted {
				n, err := m.Run(iv.Insts, nil)
				jr.SkippedInsts += n
				if err := replayCheck(i, iv, n, err); err != nil {
					return nil, fmt.Errorf("%s: %w", j.Benchmarks[bi], err)
				}
				continue
			}
			n, chars, hv, err := measureInterval(m, prof, cfg.SkipHPC, iv.Insts)
			jr.MeasuredInsts += n
			if err := replayCheck(i, iv, n, err); err != nil {
				return nil, fmt.Errorf("%s: %w", j.Benchmarks[bi], err)
			}
			jr.Measured = append(jr.Measured, JointMeasuredInterval{
				Row: tgt.row, Bench: bi, Interval: i, Phase: tgt.phase,
				Insts: iv.Insts, Chars: chars, HPC: hv,
			})
		}
	}

	// Shared phase estimates: instruction-weighted means of each
	// phase's measured intervals; then every benchmark extrapolates as
	// the occupancy-weighted sum. Phases without a measured interval
	// carry zero occupancy everywhere (they are empty), so the sum is
	// complete.
	measuredIn := make([]uint64, j.K)
	for _, mi := range jr.Measured {
		measuredIn[mi.Phase] += mi.Insts
	}
	phaseChars := make([]mica.Vector, j.K)
	phaseHPC := make([]uarch.HPCVector, j.K)
	for _, mi := range jr.Measured {
		w := float64(mi.Insts) / float64(measuredIn[mi.Phase])
		for c := range phaseChars[mi.Phase] {
			phaseChars[mi.Phase][c] += w * mi.Chars[c]
		}
		if jr.HasHPC {
			for c := range phaseHPC[mi.Phase] {
				phaseHPC[mi.Phase][c] += w * mi.HPC[c]
			}
		}
	}
	for bi := range j.Benchmarks {
		for p := 0; p < j.K; p++ {
			w := j.Occupancy.At(bi, p)
			if w == 0 {
				continue
			}
			for c := range jr.Chars[bi] {
				jr.Chars[bi][c] += w * phaseChars[p][c]
			}
			if jr.HasHPC {
				for c := range jr.HPC[bi] {
					jr.HPC[bi][c] += w * phaseHPC[p][c]
				}
			}
		}
	}
	return jr, nil
}
