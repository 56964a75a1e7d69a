package mica

import (
	"fmt"
	"testing"

	"mica/internal/isa"
	"mica/internal/trace"
)

// refPPM is the original map-based PPM predictor the flat-table
// implementation must reproduce exactly: per-(order, pc, history) count
// cells, predict from the longest previously-seen context, update every
// order, shift the outcome into the (global or per-address) history.
type refPPM struct {
	variant    PPMVariant
	maxOrder   int
	globalHist uint64
	localHist  map[uint64]uint64
	table      map[[3]uint64]*[2]uint32
	correct    uint64
	total      uint64
}

func newRefPPM(v PPMVariant, maxOrder int) *refPPM {
	return &refPPM{
		variant:   v,
		maxOrder:  maxOrder,
		localHist: make(map[uint64]uint64),
		table:     make(map[[3]uint64]*[2]uint32),
	}
}

func (p *refPPM) observe(pc uint64, taken bool) {
	var hist uint64
	perAddr := p.variant == PPMPAg || p.variant == PPMPAs
	if perAddr {
		hist = p.localHist[pc]
	} else {
		hist = p.globalHist
	}
	var tablePC uint64
	if p.variant == PPMGAs || p.variant == PPMPAs {
		tablePC = pc
	}
	predicted := true
	decided := false
	chain := make([]*[2]uint32, p.maxOrder+1)
	for k := p.maxOrder; k >= 0; k-- {
		key := [3]uint64{uint64(k), tablePC, hist & (1<<uint(k) - 1)}
		cell := p.table[key]
		if cell == nil {
			cell = new([2]uint32)
			p.table[key] = cell
		}
		chain[k] = cell
		if !decided && cell[0]+cell[1] > 0 {
			predicted = cell[1] >= cell[0]
			decided = true
		}
	}
	p.total++
	if predicted == taken {
		p.correct++
	}
	outcome := 0
	if taken {
		outcome = 1
	}
	for k := 0; k <= p.maxOrder; k++ {
		chain[k][outcome]++
	}
	bit := uint64(0)
	if taken {
		bit = 1
	}
	if perAddr {
		p.localHist[pc] = hist<<1 | bit
	} else {
		p.globalHist = hist<<1 | bit
	}
}

// refPPMs is one reference predictor per variant at a common order.
type refPPMs [NumPPMVariants]*refPPM

func newRefPPMs(order int) *refPPMs {
	var r refPPMs
	for v := range r {
		r[v] = newRefPPM(PPMVariant(v), order)
	}
	return &r
}

// observe feeds one event to every reference predictor, skipping
// unconditional ones as the analyzer does.
func (r *refPPMs) observe(ev *trace.Event) {
	if !ev.Conditional {
		return
	}
	for _, p := range r {
		p.observe(ev.PC, ev.Taken)
	}
}

// mismatch describes how variant v's correct/total counts differ
// between the analyzer and the references ("" when they agree).
func (r *refPPMs) mismatch(a *PPMAnalyzer, v PPMVariant) string {
	if p := r[v]; a.correct[v] != p.correct || a.total != p.total {
		return fmt.Sprintf("%v: correct/total = %d/%d, reference %d/%d",
			v, a.correct[v], a.total, p.correct, p.total)
	}
	return ""
}

// mismatches joins the mismatch of every variant.
func (r *refPPMs) mismatches(a *PPMAnalyzer) string {
	var msg string
	for v := PPMVariant(0); v < numPPMVariants; v++ {
		msg += r.mismatch(a, v)
	}
	return msg
}

// TestPPMDifferentialAgainstReference drives the analyzer with all four
// variants at once (they share the slot map and the histories) and the
// reference map implementation with identical branch streams. The
// streams mix biased loop branches, patterned branches, noise and
// unconditional transfers over PCs on both sides of 2^32, and the
// analyzer is Reset between segments while the references start over.
// Every variant's correct/total counts must match at the end of every
// segment, at orders 1, 4, 8, 0 and MaxPPMOrder; each order reports
// one subtest per variant.
func TestPPMDifferentialAgainstReference(t *testing.T) {
	for _, order := range []int{1, 4, 8, 0, MaxPPMOrder} {
		a := NewPPMAnalyzer(order)
		x := uint64(0xBEEF + uint64(order)*31)
		rnd := func() uint64 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return x
		}
		pcs := make([]uint64, 37)
		for i := range pcs {
			pcs[i] = isa.CodeBase + uint64(i)*4
			if i%4 == 3 {
				pcs[i] += 1 << 32
			}
		}
		var failures [NumPPMVariants]string
		for seg, n := range []int{20_000, 600, 1, 0, 25_000} {
			a.Reset()
			ref := newRefPPMs(order)
			for i := 0; i < n; i++ {
				pc := pcs[rnd()%uint64(len(pcs))]
				ev := trace.Event{PC: pc, Conditional: pc%5 != 4}
				switch pc % 3 {
				case 0: // heavily biased
					ev.Taken = rnd()%16 != 0
				case 1: // short repeating pattern
					ev.Taken = i%3 != 0
				default: // noise
					ev.Taken = rnd()%2 == 0
				}
				a.Observe(&ev)
				ref.observe(&ev)
			}
			for v := range failures {
				if msg := ref.mismatch(a, PPMVariant(v)); msg != "" && failures[v] == "" {
					failures[v] = fmt.Sprintf("order %d, segment %d: %s", order, seg, msg)
				}
			}
		}
		for v, msg := range failures {
			t.Run(PPMVariant(v).String(), func(t *testing.T) {
				if msg != "" {
					t.Fatal(msg)
				}
			})
		}
	}
}

// FuzzPPMAgainstReference checks the analyzer against the reference
// predictor on arbitrary branch streams. The first byte picks the
// order; each later byte is one event: its low bits pick one of 32
// PCs (half of them above 2^32), bit 5 the outcome, bit 6 whether the
// branch is conditional, and 0xFF resets the analyzer and starts the
// references over.
func FuzzPPMAgainstReference(f *testing.F) {
	f.Add([]byte{8, 0x21, 0x21, 0x01, 0x21, 0xFF, 0x03, 0x23, 0x43})
	f.Add([]byte{0, 1, 2, 3, 0x20, 0x21, 0x22})
	f.Add([]byte{MaxPPMOrder, 0x3F, 0x1F, 0x3F, 0x1F, 0x3F, 0x1F, 0xFF, 0x1F})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		order := int(data[0]) % (MaxPPMOrder + 1)
		a := NewPPMAnalyzer(order)
		ref := newRefPPMs(order)
		for i, b := range data[1:] {
			if b == 0xFF {
				if msg := ref.mismatches(a); msg != "" {
					t.Fatalf("before reset at byte %d: %s", i+1, msg)
				}
				a.Reset()
				ref = newRefPPMs(order)
				continue
			}
			pc := isa.CodeBase + uint64(b&0x0F)*4
			if b&0x10 != 0 {
				pc += 1 << 32
			}
			ev := trace.Event{PC: pc, Taken: b&0x20 != 0, Conditional: b&0x40 == 0}
			a.Observe(&ev)
			ref.observe(&ev)
		}
		if msg := ref.mismatches(a); msg != "" {
			t.Fatal(msg)
		}
	})
}

// TestILPDifferentialSharedRows pins the interleaved multi-window ILP
// simulation to an independent single-window run: simulating windows
// {32, 64, 128, 256} together must give exactly the IPC of simulating
// each window alone. This also pins the specialized observe4 path
// (taken when ns == 4) against the generic Observe path (taken by the
// single-window analyzers), so the two implementations cannot drift.
func TestILPDifferentialSharedRows(t *testing.T) {
	events := randomEventStream(4242, 30_000)
	combined := NewILPAnalyzer(nil, true)
	for i := range events {
		combined.Observe(&events[i])
	}
	for i, w := range combined.Windows() {
		single := NewILPAnalyzer([]int{w}, true)
		for j := range events {
			single.Observe(&events[j])
		}
		if got, want := combined.IPC(i), single.IPC(0); got != want {
			t.Errorf("window %d: combined IPC %v, standalone %v", w, got, want)
		}
	}
}

// TestWorkingSetDifferential pins the cached flat-set working-set counts
// to a builtin-map reference over a random event stream.
func TestWorkingSetDifferential(t *testing.T) {
	events := randomEventStream(99991, 50_000)
	a := NewWorkingSetAnalyzer()
	iBlocks := map[uint64]struct{}{}
	iPages := map[uint64]struct{}{}
	dBlocks := map[uint64]struct{}{}
	dPages := map[uint64]struct{}{}
	for i := range events {
		ev := &events[i]
		a.Observe(ev)
		iBlocks[ev.PC>>wsBlockShift] = struct{}{}
		iPages[ev.PC>>wsPageShift] = struct{}{}
		if ev.MemSize > 0 {
			first := ev.MemAddr >> wsBlockShift
			last := (ev.MemAddr + uint64(ev.MemSize) - 1) >> wsBlockShift
			for b := first; b <= last; b++ {
				dBlocks[b] = struct{}{}
			}
			dPages[ev.MemAddr>>wsPageShift] = struct{}{}
			dPages[(ev.MemAddr+uint64(ev.MemSize)-1)>>wsPageShift] = struct{}{}
		}
	}
	if a.InstBlocks() != len(iBlocks) || a.InstPages() != len(iPages) {
		t.Errorf("I-stream: got %d/%d blocks/pages, want %d/%d",
			a.InstBlocks(), a.InstPages(), len(iBlocks), len(iPages))
	}
	if a.DataBlocks() != len(dBlocks) || a.DataPages() != len(dPages) {
		t.Errorf("D-stream: got %d/%d blocks/pages, want %d/%d",
			a.DataBlocks(), a.DataPages(), len(dBlocks), len(dPages))
	}
}
