// Package flathash provides open-addressed hash containers specialized
// for uint64 keys on the profiling hot path. Compared to Go's built-in
// map they avoid per-entry pointers, interface hashing and bucket
// indirection: slots live in one flat array, lookup is a fibonacci-hash
// multiply plus a short linear probe, and values are stored inline.
//
// The containers support insertion and lookup only (no deletion) — the
// analyzers that use them only ever accumulate state over a trace. Slot
// zero ambiguity is resolved by tracking key 0 out of band, so any
// uint64 is a valid key.
package flathash

import "math/bits"

// fibMul is 2^64 / phi, the fibonacci hashing multiplier. Multiplying by
// it and taking the top bits spreads consecutive keys (PCs, block and
// page numbers) across the table, which linear probing needs.
const fibMul = 0x9E3779B97F4A7C15

// minCap is the smallest table size; small enough that per-benchmark
// short-lived tables stay cheap, large enough to avoid immediate growth.
const minCap = 16

// maxLoadNum/maxLoadDen give the 13/16 (~0.81) load factor at which
// tables double. Linear probing stays short below this.
const (
	maxLoadNum = 13
	maxLoadDen = 16
)

// clearShrinkCap is the capacity above which Clear reallocates at the
// previous occupancy instead of zeroing in place: a pooled table left
// huge by one outlier trace would otherwise charge a full-capacity
// memset to every later Clear, while a fresh occupancy-sized table
// costs one allocation and adapts back down immediately.
const clearShrinkCap = 1 << 15

// capFor returns the power-of-two capacity for an expected element count.
func capFor(hint int) int {
	c := minCap
	for c*maxLoadNum/maxLoadDen < hint {
		c <<= 1
	}
	return c
}

// U64Set is an open-addressed set of uint64 keys.
type U64Set struct {
	// keys holds the occupied slots; 0 marks an empty slot.
	keys    []uint64
	shift   uint // 64 - log2(len(keys))
	n       int  // occupied slots, excluding the zero key
	growAt  int
	hasZero bool
}

// NewU64Set returns a set sized for about hint elements (0 for default).
func NewU64Set(hint int) *U64Set {
	s := &U64Set{}
	s.init(capFor(hint))
	return s
}

func (s *U64Set) init(capacity int) {
	s.keys = make([]uint64, capacity)
	s.shift = uint(64 - bits.TrailingZeros(uint(capacity)))
	s.growAt = capacity * maxLoadNum / maxLoadDen
}

// Len returns the number of distinct keys added.
func (s *U64Set) Len() int {
	if s.hasZero {
		return s.n + 1
	}
	return s.n
}

// Add inserts k, reporting whether it was newly added.
func (s *U64Set) Add(k uint64) bool {
	if k != 0 {
		// First-probe membership hit, inlinable into observer loops.
		if s.keys[(k*fibMul)>>s.shift] == k {
			return false
		}
	}
	return s.addSlow(k)
}

func (s *U64Set) addSlow(k uint64) bool {
	if k == 0 {
		added := !s.hasZero
		s.hasZero = true
		return added
	}
	i := (k * fibMul) >> s.shift
	mask := uint64(len(s.keys) - 1)
	for {
		kk := s.keys[i]
		if kk == k {
			return false
		}
		if kk == 0 {
			s.keys[i] = k
			s.n++
			if s.n >= s.growAt {
				s.grow()
			}
			return true
		}
		i = (i + 1) & mask
	}
}

// Clear removes every key in place, keeping the allocated table (or,
// past clearShrinkCap, reallocating it sized to the previous
// occupancy). A cleared set behaves exactly like a fresh one, minus the
// allocation — the mechanism pooled analyzers use to recycle their
// tables between trace intervals and across benchmarks.
func (s *U64Set) Clear() {
	if len(s.keys) > clearShrinkCap {
		s.init(capFor(s.Len()))
	} else {
		clear(s.keys)
	}
	s.n = 0
	s.hasZero = false
}

// Contains reports whether k is in the set.
func (s *U64Set) Contains(k uint64) bool {
	if k == 0 {
		return s.hasZero
	}
	i := (k * fibMul) >> s.shift
	mask := uint64(len(s.keys) - 1)
	for {
		kk := s.keys[i]
		if kk == k {
			return true
		}
		if kk == 0 {
			return false
		}
		i = (i + 1) & mask
	}
}

func (s *U64Set) grow() {
	old := s.keys
	s.init(len(old) * 2)
	n := 0
	mask := uint64(len(s.keys) - 1)
	for _, k := range old {
		if k == 0 {
			continue
		}
		i := (k * fibMul) >> s.shift
		for s.keys[i] != 0 {
			i = (i + 1) & mask
		}
		s.keys[i] = k
		n++
	}
	s.n = n
}

// U64Map is an open-addressed uint64 -> uint64 map with inline values.
type U64Map struct {
	keys    []uint64 // 0 marks an empty slot
	vals    []uint64
	shift   uint
	n       int
	growAt  int
	hasZero bool
	zeroVal uint64
}

// NewU64Map returns a map sized for about hint elements (0 for default).
func NewU64Map(hint int) *U64Map {
	m := &U64Map{}
	m.init(capFor(hint))
	return m
}

func (m *U64Map) init(capacity int) {
	m.keys = make([]uint64, capacity)
	m.vals = make([]uint64, capacity)
	m.shift = uint(64 - bits.TrailingZeros(uint(capacity)))
	m.growAt = capacity * maxLoadNum / maxLoadDen
}

// Len returns the number of distinct keys stored.
func (m *U64Map) Len() int {
	if m.hasZero {
		return m.n + 1
	}
	return m.n
}

// Clear removes every entry in place, keeping the allocated tables
// (or, past clearShrinkCap, reallocating them sized to the previous
// occupancy). The values array is zeroed too: Ref relies on untouched
// slots reading as zero, exactly as in a fresh map. Pointers obtained
// from Ref before a Clear must not be used afterwards.
func (m *U64Map) Clear() {
	if len(m.keys) > clearShrinkCap {
		m.init(capFor(m.Len()))
	} else {
		clear(m.keys)
		clear(m.vals)
	}
	m.n = 0
	m.hasZero = false
	m.zeroVal = 0
}

// Get returns the value for k and whether it is present.
func (m *U64Map) Get(k uint64) (uint64, bool) {
	if k == 0 {
		return m.zeroVal, m.hasZero
	}
	i := (k * fibMul) >> m.shift
	mask := uint64(len(m.keys) - 1)
	for {
		kk := m.keys[i]
		if kk == k {
			return m.vals[i], true
		}
		if kk == 0 {
			return 0, false
		}
		i = (i + 1) & mask
	}
}

// Put stores v under k.
func (m *U64Map) Put(k, v uint64) { *m.Ref(k) = v }

// Ref returns a pointer to k's value slot, inserting a zero value if the
// key is absent. The pointer is invalidated by the next insertion of a
// new key (which may grow the table); callers use it for immediate
// in-place updates only.
func (m *U64Map) Ref(k uint64) *uint64 {
	if k == 0 {
		m.hasZero = true
		return &m.zeroVal
	}
	// First-probe hit is the overwhelmingly common case and inlines
	// into the analyzers' Observe loops.
	if i := (k * fibMul) >> m.shift; m.keys[i] == k {
		return &m.vals[i]
	}
	return m.refSlow(k)
}

// refSlow probes past the first slot and handles insertion and growth.
func (m *U64Map) refSlow(k uint64) *uint64 {
	i := (k * fibMul) >> m.shift
	mask := uint64(len(m.keys) - 1)
	for {
		kk := m.keys[i]
		if kk == k {
			return &m.vals[i]
		}
		if kk == 0 {
			m.keys[i] = k
			m.n++
			if m.n >= m.growAt {
				m.grow()
				// Re-probe: the slot moved during rehashing.
				i = (k * fibMul) >> m.shift
				mask = uint64(len(m.keys) - 1)
				for m.keys[i] != k {
					i = (i + 1) & mask
				}
			}
			return &m.vals[i]
		}
		i = (i + 1) & mask
	}
}

func (m *U64Map) grow() {
	oldK, oldV := m.keys, m.vals
	m.init(len(oldK) * 2)
	mask := uint64(len(m.keys) - 1)
	n := 0
	for j, k := range oldK {
		if k == 0 {
			continue
		}
		i := (k * fibMul) >> m.shift
		for m.keys[i] != 0 {
			i = (i + 1) & mask
		}
		m.keys[i] = k
		m.vals[i] = oldV[j]
		n++
	}
	m.n = n
}
