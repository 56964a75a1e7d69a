package mica

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"
)

// pinHash folds pipeline outputs into one sha256, floats by their
// exact bit patterns, so any change in a single value shows.
type pinHash struct{ h hash.Hash }

func (p pinHash) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	p.h.Write(b[:])
}
func (p pinHash) int(v int)     { p.u64(uint64(int64(v))) }
func (p pinHash) f64(v float64) { p.u64(math.Float64bits(v)) }
func (p pinHash) str(s string)  { p.int(len(s)); p.h.Write([]byte(s)) }
func (p pinHash) bool(b bool)   { p.int(map[bool]int{false: 0, true: 1}[b]) }
func (p pinHash) floats(v []float64) {
	p.int(len(v))
	for _, x := range v {
		p.f64(x)
	}
}
func (p pinHash) ints(v []int) {
	p.int(len(v))
	for _, x := range v {
		p.int(x)
	}
}

func (p pinHash) phases(r *PhaseResult) {
	p.int(len(r.Intervals))
	for _, iv := range r.Intervals {
		p.int(iv.Index)
		p.u64(iv.Start)
		p.u64(iv.Insts)
	}
	p.int(r.Vectors.Rows)
	p.floats(r.Vectors.Data)
	p.ints(r.Assign)
	p.int(r.K)
	p.int(len(r.Representatives))
	for _, rep := range r.Representatives {
		p.int(rep.Phase)
		p.int(rep.Interval)
		p.f64(rep.Weight)
	}
}

func (p pinHash) joint(j *PhaseJointResult) {
	for _, n := range j.Benchmarks {
		p.str(n)
	}
	p.int(len(j.Rows))
	for r, ref := range j.Rows {
		p.int(ref.Bench)
		p.int(ref.Interval)
		p.u64(j.RowInsts[r])
	}
	p.ints(j.Assign)
	p.int(j.K)
	p.int(len(j.Representatives))
	for _, rep := range j.Representatives {
		p.int(rep.Phase)
		p.int(rep.Row)
		p.int(rep.Bench)
		p.int(rep.Interval)
		p.f64(rep.Weight)
	}
	p.floats(j.Occupancy.Data)
}

func (p pinHash) measured(insts uint64, chars []float64, hpc []float64) {
	p.u64(insts)
	p.floats(chars)
	p.floats(hpc)
}

// pinnedPhase is the small grid the output pins run under.
var pinnedPhase = PhaseConfig{IntervalLen: 500, MaxIntervals: 12, MaxK: 3, Seed: 2006}

// runPinned runs analysis name ("phases", "joint", "reduced" or
// "joint-reduced") over bs with the pinned grid, characterizing through
// store (the zero value keeps it in memory), and returns the sha256 of
// its output.
func runPinned(t *testing.T, bs []Benchmark, name string, store StoreOptions) string {
	t.Helper()
	req := Request{Benchmarks: bs, Joint: name == "joint" || name == "joint-reduced", Store: store}
	if name == "reduced" || name == "joint-reduced" {
		req.Reduced = &ReducedPipelineConfig{Reduced: ReducedConfig{Phase: pinnedPhase}, Workers: 2}
	} else {
		req.Phases = &PhasePipelineConfig{Phase: pinnedPhase, Workers: 2}
	}
	rep, err := Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	p := pinHash{sha256.New()}
	switch name {
	case "phases":
		for _, r := range rep.Phases {
			p.str(r.Benchmark.Name())
			p.phases(r.Result)
		}
	case "joint":
		p.joint(rep.Joint)
	case "reduced":
		for _, r := range rep.Reduced {
			p.str(r.Benchmark.Name())
			p.phases(r.Result.Phases)
			p.int(len(r.Result.Measured))
			for _, m := range r.Result.Measured {
				p.int(m.Interval)
				p.int(m.Phase)
				p.measured(m.Insts, m.Chars[:], m.HPC[:])
			}
			p.bool(r.Result.HasHPC)
			p.floats(r.Result.Chars[:])
			p.floats(r.Result.HPC[:])
			p.u64(r.Result.SampledInsts)
			p.u64(r.Result.MeasuredInsts)
			p.u64(r.Result.SkippedInsts)
		}
	case "joint-reduced":
		jr := rep.JointReduced
		p.joint(jr.Joint)
		p.int(len(jr.Measured))
		for _, m := range jr.Measured {
			p.int(m.Row)
			p.int(m.Bench)
			p.int(m.Interval)
			p.int(m.Phase)
			p.measured(m.Insts, m.Chars[:], m.HPC[:])
		}
		p.bool(jr.HasHPC)
		for b := range jr.Chars {
			p.floats(jr.Chars[b][:])
			p.floats(jr.HPC[b][:])
		}
		p.u64(jr.MeasuredInsts)
		p.u64(jr.SkippedInsts)
	}
	return hex.EncodeToString(p.h.Sum(nil))
}

// pinnedOutputs is the sha256 of each analysis' Run output over sha
// and drr on the pinned grid: over the float64 bits of every interval
// vector, assignment, K, representative, occupancy and reduced
// measurement and extrapolation. Characterized rows are float32 from
// birth, which the store encodes losslessly, so the in-memory and the
// store-backed run of an analysis both hash to its one entry.
var pinnedOutputs = []struct{ name, want string }{
	{"phases", "34927ec5ff049b5133df2a2ebaddde8a14fa591d4a7c1a65ecc2a90862a708a4"},
	{"joint", "8125e26dab3023a465c25746544322ed4aa68328dc1c1f267eec97d9cf70731c"},
	{"reduced", "24c5ae0535472776328b665068f2e2cd2b626aceb6ab0ed3695d6730e4ac0c12"},
	{"joint-reduced", "9473a5078410c254a32865ce671e5675730817bf23b693cea75f424469f1cada"},
}

// checkPinned runs every analysis, characterized through a fresh
// store or kept in memory, and holds its output hash to pinnedOutputs.
func checkPinned(t *testing.T, store bool) {
	bs := storeBenchmarks(t, "MiBench/sha/large", "CommBench/drr/drr")
	for _, tc := range pinnedOutputs {
		t.Run(tc.name, func(t *testing.T) {
			var opt StoreOptions
			if store {
				opt.Dir = t.TempDir()
			}
			if got := runPinned(t, bs, tc.name, opt); got != tc.want {
				t.Errorf("%s output hash %s, want %s", tc.name, got, tc.want)
			}
		})
	}
}

// TestRunInMemoryOutputsPinned pins the in-memory Run output of all
// four analyses — per-benchmark and joint phases, per-benchmark and
// joint reduced.
func TestRunInMemoryOutputsPinned(t *testing.T) { checkPinned(t, false) }

// TestRunStoreOutputsPinned pins the same four analyses characterized
// through an interval-vector store to the same hashes.
func TestRunStoreOutputsPinned(t *testing.T) { checkPinned(t, true) }
