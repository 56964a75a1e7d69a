package mica

import (
	"fmt"

	"mica/internal/flathash"
	"mica/internal/trace"
)

// PPMVariant selects one of the four Prediction-by-Partial-Matching
// branch predictability metrics of Table II (characteristics 44-47),
// following Chen et al.'s taxonomy: the first letter selects the history
// (Global or Per-address), the second whether the prediction table is
// shared by all branches ('g') or separate per branch ('s').
type PPMVariant uint8

// The four PPM variants used in the paper.
const (
	PPMGAg PPMVariant = iota // global history, shared table
	PPMPAg                   // per-address history, shared table
	PPMGAs                   // global history, per-branch tables
	PPMPAs                   // per-address history, per-branch tables
	numPPMVariants
)

// NumPPMVariants is the number of PPM predictor variants.
const NumPPMVariants = int(numPPMVariants)

// String returns the conventional predictor name.
func (v PPMVariant) String() string {
	switch v {
	case PPMGAg:
		return "GAg"
	case PPMPAg:
		return "PAg"
	case PPMGAs:
		return "GAs"
	case PPMPAs:
		return "PAs"
	default:
		return fmt.Sprintf("ppm(%d)", uint8(v))
	}
}

// perAddress reports whether v predicts from the branch's own history.
func (v PPMVariant) perAddress() bool { return v == PPMPAg || v == PPMPAs }

// perBranch reports whether v keeps a separate table per branch.
func (v PPMVariant) perBranch() bool { return v == PPMGAs || v == PPMPAs }

// DefaultPPMOrder is the default maximum PPM context order (history
// length in bits). The PPM predictor is to be seen as a theoretical upper
// bound on branch predictability, not a hardware design; order 8 is deep
// enough to capture loop and correlation patterns while remaining cheap
// to measure. The ablation bench sweeps this parameter.
const DefaultPPMOrder = 8

// MaxPPMOrder is the largest accepted PPM order. A counter block holds
// 2^(K+1)-1 cells, so order 12 already costs 64 KB per block.
const MaxPPMOrder = 12

// PPMAnalyzer measures branch predictability with a configurable set of
// PPM variants. Only conditional branches are scored; unconditional
// transfers are perfectly predictable and excluded, as in the paper's
// methodology.
//
// The model state of a variant is one flat array of packed counters
// (not-taken count in the low 32 bits, taken count in the high 32) laid
// out in blocks of 2^(K+1)-1 cells for order K: the order-k context of
// history h sits at cell 2^k-1 + (h mod 2^k), so a branch's whole
// context chain is plain indexing into one block. The shared ('g')
// variants use a single block. The per-branch ('s') variants use one
// block per static conditional branch, found through a pc -> slot map
// that all variants share along with the global history and the
// per-slot local histories.
//
// Memory therefore grows with static branches, not with dynamic
// contexts: a block is 8*(2^(K+1)-1) bytes (4 KB at DefaultPPMOrder),
// and an analyzer holds two shared blocks plus two per static
// conditional branch — at most ~120 KB for the registry's largest
// program, which has 14. Two caps bound it for any input: K is at most
// MaxPPMOrder, and a trace holds at most 1<<14 static records, so
// neither a configuration nor an uploaded trace can demand unbounded
// memory.
type PPMAnalyzer struct {
	order  int
	span   int // cells per block: 2^(order+1)-1
	on     [NumPPMVariants]bool
	active []PPMVariant
	// blocks holds each variant's counters: one block for a shared
	// variant, one per slot for a per-branch one.
	blocks [NumPPMVariants][]uint64

	slotOf     *flathash.U64Map // branch PC -> slot+1
	localHist  []uint64         // per slot
	globalHist uint64

	correct [NumPPMVariants]uint64
	total   uint64
}

// NewPPMAnalyzer returns an analyzer with all four variants at the given
// maximum order (use DefaultPPMOrder).
func NewPPMAnalyzer(maxOrder int) *PPMAnalyzer {
	return NewPPMAnalyzerVariants(maxOrder, nil)
}

// NewPPMAnalyzerVariants measures only the listed variants (nil means all
// four). Measuring fewer variants is proportionally cheaper — the
// per-characteristic saving the paper's key-subset methodology banks on.
// It panics unless 0 <= maxOrder <= MaxPPMOrder.
func NewPPMAnalyzerVariants(maxOrder int, variants []PPMVariant) *PPMAnalyzer {
	if maxOrder < 0 || maxOrder > MaxPPMOrder {
		panic("mica: PPM order out of range")
	}
	if variants == nil {
		variants = []PPMVariant{PPMGAg, PPMPAg, PPMGAs, PPMPAs}
	}
	a := &PPMAnalyzer{
		order:  maxOrder,
		span:   1<<(maxOrder+1) - 1,
		slotOf: flathash.NewU64Map(0),
	}
	for _, v := range variants {
		if a.on[v] {
			continue
		}
		a.on[v] = true
		a.active = append(a.active, v)
		if !v.perBranch() {
			a.blocks[v] = make([]uint64, a.span)
		}
	}
	return a
}

// Reset returns the analyzer to its initial state, keeping its
// allocations: the shared blocks are zeroed, and the per-branch blocks
// are zeroed as their branches take slots again.
func (a *PPMAnalyzer) Reset() {
	for _, v := range a.active {
		if v.perBranch() {
			a.blocks[v] = a.blocks[v][:0]
		} else {
			clear(a.blocks[v])
		}
	}
	a.slotOf.Clear()
	a.localHist = a.localHist[:0]
	a.globalHist = 0
	a.correct = [NumPPMVariants]uint64{}
	a.total = 0
}

// slot returns pc's slot, giving a branch seen for the first time a new
// one with an empty history and zeroed per-branch blocks.
func (a *PPMAnalyzer) slot(pc uint64) int {
	ref := a.slotOf.Ref(pc)
	if *ref == 0 {
		*ref = uint64(len(a.localHist)) + 1
		a.localHist = append(a.localHist, 0)
		for _, v := range a.active {
			if v.perBranch() {
				a.blocks[v] = append(a.blocks[v], make([]uint64, a.span)...)
			}
		}
	}
	return int(*ref - 1)
}

// Observe implements trace.Observer.
func (a *PPMAnalyzer) Observe(ev *trace.Event) {
	if !ev.Conditional || len(a.active) == 0 {
		return
	}
	s := a.slot(ev.PC)
	local := a.localHist[s]
	a.total++
	for _, v := range a.active {
		hist, block := a.globalHist, a.blocks[v]
		if v.perAddress() {
			hist = local
		}
		if v.perBranch() {
			block = block[s*a.span : (s+1)*a.span]
		}
		if a.score(block, hist, ev.Taken) {
			a.correct[v]++
		}
	}
	bit := uint64(0)
	if ev.Taken {
		bit = 1
	}
	a.globalHist = a.globalHist<<1 | bit
	a.localHist[s] = local<<1 | bit
}

// score predicts a branch from the longest context of hist that block
// has seen before (taken when none has), counts the outcome into every
// order's context, and reports whether the prediction was right. The
// order-k cell offset and history mask are both 2^k-1, so one value m
// walks the chain from the highest order down.
func (a *PPMAnalyzer) score(block []uint64, hist uint64, taken bool) bool {
	top := uint64(a.span >> 1)
	predicted := true
	for m := top; ; m >>= 1 {
		if c := block[m+hist&m]; c != 0 {
			// taken count (high half) >= not-taken count (low half)
			predicted = uint32(c>>32) >= uint32(c)
			break
		}
		if m == 0 {
			break
		}
	}
	// The packed halves saturate instead of wrapping so a pathological
	// 2^32-repetition context cannot carry into its neighbor count.
	for m := top; ; m >>= 1 {
		i := m + hist&m
		c := block[i]
		if taken {
			if c < 0xFFFFFFFF<<32 {
				block[i] = c + 1<<32
			}
		} else if uint32(c) != 0xFFFFFFFF {
			block[i] = c + 1
		}
		if m == 0 {
			break
		}
	}
	return predicted == taken
}

// Accuracy returns the prediction accuracy of a variant (0 when the
// variant was not configured).
func (a *PPMAnalyzer) Accuracy(v PPMVariant) float64 {
	if !a.on[v] || a.total == 0 {
		return 0
	}
	return float64(a.correct[v]) / float64(a.total)
}

// Branches returns the number of conditional branches scored.
func (a *PPMAnalyzer) Branches() uint64 { return a.total }

// Fill writes characteristics 44-47 into v.
func (a *PPMAnalyzer) Fill(v *Vector) {
	v[CharPPMGAg] = a.Accuracy(PPMGAg)
	v[CharPPMPAg] = a.Accuracy(PPMPAg)
	v[CharPPMGAs] = a.Accuracy(PPMGAs)
	v[CharPPMPAs] = a.Accuracy(PPMPAs)
}
