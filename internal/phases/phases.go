// Package phases implements interval-based program phase analysis, the
// extension the paper's related-work section points at (SimPoint-style
// phase classification, Sherwood et al. [18]; Eeckhout et al. [16] use
// the same microarchitecture-independent characteristics per phase): a
// benchmark's trace is split into fixed-length intervals, each interval
// is characterized with the Table II metrics, intervals are clustered
// into phases with k-means + BIC, and one representative interval is
// selected per phase with a weight proportional to the phase's share of
// execution — the recipe for reduced-trace simulation.
//
// The analysis is streaming and bounded-memory: intervals are
// characterized as the VM runs by ONE profiler that is Reset between
// intervals (analyzer tables cleared in place, never reallocated), and
// interval vectors land in one flat row-major matrix. The default
// interval cap is deliberately modest (DefaultConfig: 100 intervals,
// the quick-look grid); paper-scale runs raise MaxIntervals to 10k+
// and memory still grows only with the intervals actually produced,
// never with the trace length. Registry-scale JOINT analysis goes one
// step further: AnalyzeJointStore streams interval vectors
// shard-by-shard out of an on-disk store (internal/ivstore), so not
// even the per-benchmark matrices need to coexist in memory.
package phases

import (
	"errors"
	"fmt"

	"mica/internal/cluster"
	"mica/internal/mica"
	"mica/internal/obs"
	"mica/internal/stats"
	"mica/internal/trace"
)

// metIntervals counts characterized intervals across every pipeline
// (full, cheap-pass reduced, store-backed), batched per benchmark.
var metIntervals = obs.Default().Counter("mica_phases_intervals_total", "Intervals characterized.")

// Config parameterizes phase analysis.
type Config struct {
	// IntervalLen is the interval length in dynamic instructions
	// (default 10k).
	IntervalLen uint64
	// MaxIntervals bounds the trace length. The default is 100
	// intervals — a quick-look grid, NOT the paper-scale setting;
	// registry/paper-scale runs raise it to 10k+ and stay
	// bounded-memory, since storage grows with intervals actually
	// produced, not with the trace length.
	MaxIntervals int
	// MaxK bounds the BIC sweep (default 10).
	MaxK int
	// Seed drives k-means.
	Seed int64
	// Options configures the interval profiler. The zero value measures
	// all 47 characteristics with memory dependencies tracked at the
	// default PPM order.
	Options mica.Options
}

func (c Config) withDefaults() Config { return c.WithDefaults() }

// DefaultConfig returns the documented default configuration, spelled
// out: 10k instructions per interval, a 100-interval quick-look grid,
// BIC sweep to K=10, all 47 characteristics with memory dependencies
// tracked. Config{}.WithDefaults() must equal it exactly — the zero
// value and the documented defaults can never drift apart
// (regression-tested), the same contract mica.Options keeps.
func DefaultConfig() Config {
	return Config{
		IntervalLen:  10_000,
		MaxIntervals: 100,
		MaxK:         10,
	}
}

// WithDefaults returns c with zero fields replaced by the documented
// defaults — the normalized form store shards are stamped with.
func (c Config) WithDefaults() Config {
	if c.IntervalLen == 0 {
		c.IntervalLen = 10_000
	}
	if c.MaxIntervals == 0 {
		c.MaxIntervals = 100
	}
	if c.MaxK == 0 {
		c.MaxK = 10
	}
	return c
}

// Interval is one characterized trace slice. Its characteristic vector
// lives in the Result's flat Vectors matrix (row Index).
type Interval struct {
	// Index is the interval's position in the trace.
	Index int
	// Start is the dynamic instruction number of the interval's first
	// instruction.
	Start uint64
	// Insts is the interval length (the last interval may be short).
	Insts uint64
}

// Representative is one phase's chosen simulation point.
type Representative struct {
	// Phase is the cluster id.
	Phase int
	// Interval is the index of the interval closest to the phase
	// centroid.
	Interval int
	// Weight is the phase's share of dynamic instructions. Weighting by
	// instructions rather than by interval count keeps a short trailing
	// interval from counting like a full one, so WeightedVector matches
	// what a reduced simulation replaying each representative for its
	// phase's instruction share would reconstruct.
	Weight float64
}

// Result is the outcome of phase analysis for one benchmark.
type Result struct {
	Intervals []Interval
	// Vectors holds the interval characteristic vectors as the rows of
	// one flat matrix, in interval order: row i is interval i's Table II
	// vector.
	Vectors *stats.Matrix
	// Assign maps each interval to its phase.
	Assign []int
	// K is the BIC-selected number of phases.
	K int
	// Representatives holds one weighted simulation point per phase,
	// ordered by descending weight.
	Representatives []Representative
}

// Vector returns interval i's characteristic vector.
func (r *Result) Vector(i int) mica.Vector {
	var v mica.Vector
	copy(v[:], r.Vectors.Row(i))
	return v
}

// TotalInsts returns the number of dynamic instructions across all
// intervals — the profiled trace length.
func (r *Result) TotalInsts() uint64 {
	var n uint64
	for _, iv := range r.Intervals {
		n += iv.Insts
	}
	return n
}

// Analyze runs streaming phase analysis over a source's event stream
// (a freshly instantiated machine or a freshly opened trace replay):
// up to MaxIntervals intervals of IntervalLen instructions each,
// characterized by one profiler reused across all intervals.
func Analyze(m trace.Source, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	return AnalyzeWith(m, mica.NewProfiler(cfg.Options), cfg)
}

// AnalyzeWith is Analyze with a caller-supplied profiler, which must
// have been built from cfg.Options. The profiler is Reset before every
// interval, so a pooled profiler arrives clean no matter what trace it
// measured last — the mechanism registry-wide pipelines use to share
// one profiler's tables across many benchmarks.
func AnalyzeWith(m trace.Source, prof *mica.Profiler, cfg Config) (*Result, error) {
	return analyze(m, cfg.withDefaults(), func() *mica.Profiler {
		prof.Reset()
		return prof
	})
}

// AnalyzeUnpooled is the pre-streaming reference implementation: a
// fresh profiler is allocated for every interval. It produces
// bit-identical results to Analyze/AnalyzeWith and is retained as the
// differential-testing oracle and as the baseline configuration of
// BenchmarkPhaseHotPath.
func AnalyzeUnpooled(m trace.Source, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	return analyze(m, cfg, func() *mica.Profiler {
		return mica.NewProfiler(cfg.Options)
	})
}

// CharacterizeWith is AnalyzeWith without the clustering step: it
// streams intervals through the (Reset) caller-supplied profiler and
// returns a Result whose Intervals and Vectors are filled but whose
// Assign/K/Representatives are empty. Joint cross-benchmark pipelines
// use it to characterize each benchmark before clustering ALL
// intervals at once (AnalyzeJoint).
func CharacterizeWith(m trace.Source, prof *mica.Profiler, cfg Config) (*Result, error) {
	return characterize(m, cfg.withDefaults(), func() *mica.Profiler {
		prof.Reset()
		return prof
	})
}

// analyze streams intervals off the source, drawing the profiler for
// each interval from nextProfiler (a pooled reset or a fresh
// allocation), then clusters them.
func analyze(m trace.Source, cfg Config, nextProfiler func() *mica.Profiler) (*Result, error) {
	res, err := characterize(m, cfg, nextProfiler)
	if err != nil {
		return nil, err
	}
	res.cluster(cfg)
	return res, nil
}

// characterize streams intervals off the source into a Result's flat
// vector matrix, leaving the clustering fields empty.
func characterize(m trace.Source, cfg Config, nextProfiler func() *mica.Profiler) (*Result, error) {
	span := obs.StartSpan("phases.characterize")
	defer span.End()
	res := &Result{}
	var vecs []float64
	var start uint64
	for i := 0; i < cfg.MaxIntervals; i++ {
		prof := nextProfiler()
		n, err := m.Run(cfg.IntervalLen, prof)
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
			return nil, fmt.Errorf("phases: interval %d: %w", i, err)
		}
	}
	if len(res.Intervals) == 0 {
		return nil, fmt.Errorf("phases: program produced no instructions")
	}
	metIntervals.Add(float64(len(res.Intervals)))
	res.Vectors = &stats.Matrix{Rows: len(res.Intervals), Cols: mica.NumChars, Data: vecs}
	return res, nil
}

// cluster groups the characterized intervals into phases and selects
// weighted representatives.
func (res *Result) cluster(cfg Config) {
	// Cluster intervals in the normalized characteristic space.
	nspan := obs.StartSpan("phases.normalize")
	norm := stats.ZScoreNormalize(res.Vectors)
	nspan.End()
	sel := cluster.SelectK(norm, cfg.MaxK, cfg.Seed)
	res.Assign = sel.Best.Assign
	res.K = sel.Best.K

	// Pick the interval closest to each centroid as the phase
	// representative (the SimPoint selection rule), weighted by the
	// phase's share of dynamic instructions.
	instsIn := make([]uint64, res.K)
	bestIdx := make([]int, res.K)
	bestDist := make([]float64, res.K)
	for c := range bestDist {
		bestDist[c] = -1
	}
	totalInsts := res.TotalInsts()
	for i, c := range res.Assign {
		instsIn[c] += res.Intervals[i].Insts
		d := stats.Euclidean(norm.Row(i), sel.Best.Centroids.Row(c))
		if bestDist[c] < 0 || d < bestDist[c] {
			bestDist[c], bestIdx[c] = d, i
		}
	}
	for c := 0; c < res.K; c++ {
		if instsIn[c] == 0 {
			continue
		}
		res.Representatives = append(res.Representatives, Representative{
			Phase:    c,
			Interval: bestIdx[c],
			Weight:   float64(instsIn[c]) / float64(totalInsts),
		})
	}
	sortRepsByWeight(res.Representatives, func(r Representative) float64 { return r.Weight })
}

// sortRepsByWeight orders representatives by descending weight
// (insertion sort; K is small). Ties keep ascending phase id: only
// strictly heavier representatives move up. Shared by the
// per-benchmark and joint paths so their orderings coincide exactly.
func sortRepsByWeight[R any](reps []R, weight func(R) float64) {
	for i := 1; i < len(reps); i++ {
		for j := i; j > 0 && weight(reps[j]) > weight(reps[j-1]); j-- {
			reps[j], reps[j-1] = reps[j-1], reps[j]
		}
	}
}

// WeightedVector reconstructs a whole-program characteristic estimate
// from the representatives alone — the quantity a reduced simulation
// would use in place of the full trace.
func (r *Result) WeightedVector() mica.Vector {
	var out mica.Vector
	for _, rep := range r.Representatives {
		v := r.Vectors.Row(rep.Interval)
		for c := range out {
			out[c] += rep.Weight * v[c]
		}
	}
	return out
}

// FullVector is the instruction-weighted mean of all interval vectors:
// the whole-trace estimate the weighted representatives try to
// reconstruct. (For per-instruction metrics — mix fractions,
// probabilities — this is the exact full-trace value; set-valued
// working-set counts are averaged the same way, as SimPoint does.)
func (r *Result) FullVector() mica.Vector {
	var out mica.Vector
	total := r.TotalInsts()
	if total == 0 {
		return out
	}
	for i, iv := range r.Intervals {
		w := float64(iv.Insts) / float64(total)
		row := r.Vectors.Row(i)
		for c := range out {
			out[c] += w * row[c]
		}
	}
	return out
}

// ReconstructionError is the mean absolute per-characteristic
// difference between WeightedVector and FullVector — how much is lost
// by simulating only the representatives.
func (r *Result) ReconstructionError() float64 {
	w, f := r.WeightedVector(), r.FullVector()
	sum := 0.0
	for c := range w {
		d := w[c] - f[c]
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum / float64(len(w))
}
