package mica

import (
	"fmt"

	"mica/internal/trace"
)

// Options configures a Profiler.
type Options struct {
	// NoMemDeps makes the ILP model ignore store-to-load dependencies
	// through memory. The field is inverted so that the zero Options
	// value is the documented default (dependencies honored): callers
	// that set only some fields can no longer silently lose memory
	// dependence tracking.
	NoMemDeps bool
	// PPMOrder is the maximum PPM context order; 0 means
	// DefaultPPMOrder.
	PPMOrder int
	// Subset, when non-nil, selects which characteristics must be
	// measured (true = measure). Whole analyzers are skipped when none
	// of their characteristics are selected — this is exactly the
	// measurement saving the paper's key-characteristic selection
	// delivers (Section V: 8 characteristics are ~3X faster to collect
	// than 47).
	Subset []bool
}

// DefaultOptions returns the configuration used throughout the paper
// reproduction. It is identical to the zero Options value: memory
// dependencies tracked, default PPM order, all 47 characteristics.
func DefaultOptions() Options {
	return Options{PPMOrder: DefaultPPMOrder}
}

// Validate returns an error unless o.PPMOrder is accepted: 0 (meaning
// DefaultPPMOrder) through MaxPPMOrder. The pipeline entry points call
// it before building a profiler, whose PPM constructor panics on an
// out-of-range order.
func (o Options) Validate() error {
	if o.PPMOrder < 0 || o.PPMOrder > MaxPPMOrder {
		return fmt.Errorf("mica: PPM order %d out of range 0..%d (0 means the default %d)",
			o.PPMOrder, MaxPPMOrder, DefaultPPMOrder)
	}
	return nil
}

// Profiler measures the 47 Table II characteristics in a single pass over
// the dynamic instruction stream. It implements trace.Observer; attach it
// to a vm.Machine run and call Vector when done.
type Profiler struct {
	mix     *MixAnalyzer
	ilp     *ILPAnalyzer
	reg     *RegTrafficAnalyzer
	ws      *WorkingSetAnalyzer
	strides *StrideAnalyzer
	ppm     *PPMAnalyzer
}

// rangeActive reports whether any characteristic in [lo, hi] is selected.
func rangeActive(subset []bool, lo, hi int) bool {
	if subset == nil {
		return true
	}
	for i := lo; i <= hi && i < len(subset); i++ {
		if subset[i] {
			return true
		}
	}
	return false
}

// NewProfiler builds a profiler with the given options.
func NewProfiler(opts Options) *Profiler {
	order := opts.PPMOrder
	if order == 0 {
		order = DefaultPPMOrder
	}
	p := &Profiler{}
	if rangeActive(opts.Subset, CharPctLoads, CharPctFP) {
		p.mix = NewMixAnalyzer()
	}
	if rangeActive(opts.Subset, CharILP32, CharILP256) {
		// nil simulates every Table II window; a subset simulates only
		// its selected window sizes.
		var windows []int
		if opts.Subset != nil {
			for i, w := range DefaultILPWindows {
				c := CharILP32 + i
				if c < len(opts.Subset) && opts.Subset[c] {
					windows = append(windows, w)
				}
			}
		}
		p.ilp = NewILPAnalyzer(windows, !opts.NoMemDeps)
	}
	if rangeActive(opts.Subset, CharAvgInputOperands, CharDepDistLE64) {
		p.reg = NewRegTrafficAnalyzer()
	}
	if rangeActive(opts.Subset, CharDWSBlocks, CharIWSPages) {
		p.ws = NewWorkingSetAnalyzer()
	}
	if rangeActive(opts.Subset, CharLocalLoadStride0, CharGlobalStoreStrideLE4096) {
		p.strides = NewStrideAnalyzer()
	}
	if rangeActive(opts.Subset, CharPPMGAg, CharPPMPAs) {
		var variants []PPMVariant
		if opts.Subset != nil {
			for v := 0; v < NumPPMVariants; v++ {
				c := CharPPMGAg + v
				if c < len(opts.Subset) && opts.Subset[c] {
					variants = append(variants, PPMVariant(v))
				}
			}
		}
		p.ppm = NewPPMAnalyzerVariants(order, variants)
	}
	return p
}

// Observe implements trace.Observer, fanning the event to each active
// analyzer.
func (p *Profiler) Observe(ev *trace.Event) {
	if p.mix != nil {
		p.mix.Observe(ev)
	}
	if p.ilp != nil {
		p.ilp.Observe(ev)
	}
	if p.reg != nil {
		p.reg.Observe(ev)
	}
	if p.ws != nil {
		p.ws.Observe(ev)
	}
	if p.strides != nil {
		p.strides.Observe(ev)
	}
	if p.ppm != nil {
		p.ppm.Observe(ev)
	}
}

// Reset returns the profiler to its initial state so it can be reused
// for another trace: all analyzer tables are cleared in place, keeping
// their allocations. A reset profiler produces bit-identical results to
// a freshly constructed one with the same Options — the property that
// lets phase analysis stream thousands of intervals through one
// profiler and lets registry-wide pipelines pool analyzer state across
// benchmarks instead of rebuilding it per trace.
func (p *Profiler) Reset() {
	if p.mix != nil {
		p.mix.Reset()
	}
	if p.ilp != nil {
		p.ilp.Reset()
	}
	if p.reg != nil {
		p.reg.Reset()
	}
	if p.ws != nil {
		p.ws.Reset()
	}
	if p.strides != nil {
		p.strides.Reset()
	}
	if p.ppm != nil {
		p.ppm.Reset()
	}
}

// Vector assembles the 47-dimensional characteristic vector. Entries of
// analyzers that were disabled by Options.Subset are zero.
func (p *Profiler) Vector() Vector {
	var v Vector
	if p.mix != nil {
		p.mix.Fill(&v)
	}
	if p.ilp != nil {
		p.ilp.Fill(&v)
	}
	if p.reg != nil {
		p.reg.Fill(&v)
	}
	if p.ws != nil {
		p.ws.Fill(&v)
	}
	if p.strides != nil {
		p.strides.Fill(&v)
	}
	if p.ppm != nil {
		p.ppm.Fill(&v)
	}
	return v
}
