package trace

import "errors"

// ErrBudget is returned by Source.Run when the instruction budget is
// reached before the event stream ends. It is an expected, non-fatal
// outcome: workload kernels are written as long-running loops and the
// budget plays the role of the trace length. The VM and the trace-file
// Reader both return this same sentinel, so budget handling is uniform
// across sources (vm.ErrBudget aliases it for compatibility).
var ErrBudget = errors.New("trace: instruction budget exhausted")

// Source produces a dynamic instruction event stream. The embedded VM
// (*vm.Machine) and the trace-file *Reader both implement it; every
// analyzer pipeline consumes this interface instead of a concrete
// producer, which is what lets recorded traces flow through
// Profile/phase analysis/reduced profiling unchanged.
//
// Run delivers up to budget events to obs (budget <= 0 means
// unlimited; obs may be nil to skip delivery) and returns the number of
// events produced by this call. It returns nil when the stream ended —
// the program halted or the trace ran out — and ErrBudget when the
// budget stopped it first. State persists across calls: a second Run
// continues where the first stopped, which is how interval-based phase
// profiling slices one execution into fixed-length windows. Sources are
// not safe for concurrent use.
//
// A Source is re-runnable only by obtaining a fresh instance (a new VM
// from Benchmark.Instantiate, a fresh Reader via Open or Reset); the
// reduced-profiling replay pass relies on that.
type Source interface {
	Run(budget uint64, obs Observer) (uint64, error)
}
