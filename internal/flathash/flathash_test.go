package flathash

import (
	"math/rand"
	"testing"
)

// keyGen produces keys with the distributions the analyzers see: dense
// sequential runs (PCs, block numbers), clustered addresses, uniform
// noise, and the zero key.
func keyGen(rng *rand.Rand) func() uint64 {
	base := rng.Uint64() >> 16
	return func() uint64 {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1, 2, 3:
			return base + uint64(rng.Intn(4096)) // dense run
		case 4, 5:
			return (base << 12) | uint64(rng.Intn(64)) // clustered
		default:
			return rng.Uint64()
		}
	}
}

func TestU64SetVsBuiltin(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		gen := keyGen(rng)
		s := NewU64Set(0)
		ref := make(map[uint64]struct{})
		for i := 0; i < 20000; i++ {
			k := gen()
			_, had := ref[k]
			ref[k] = struct{}{}
			if added := s.Add(k); added == had {
				t.Fatalf("seed %d op %d: Add(%#x) = %v, want %v", seed, i, k, added, !had)
			}
			if i%37 == 0 {
				probe := gen()
				_, want := ref[probe]
				if got := s.Contains(probe); got != want {
					t.Fatalf("seed %d op %d: Contains(%#x) = %v, want %v", seed, i, probe, got, want)
				}
			}
		}
		if s.Len() != len(ref) {
			t.Fatalf("seed %d: Len = %d, want %d", seed, s.Len(), len(ref))
		}
		for k := range ref {
			if !s.Contains(k) {
				t.Fatalf("seed %d: lost key %#x", seed, k)
			}
		}
	}
}

func TestU64MapVsBuiltin(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		gen := keyGen(rng)
		m := NewU64Map(0)
		ref := make(map[uint64]uint64)
		for i := 0; i < 20000; i++ {
			k := gen()
			switch rng.Intn(3) {
			case 0: // Put
				v := rng.Uint64()
				m.Put(k, v)
				ref[k] = v
			case 1: // Ref increment (the PPM/ILP usage pattern)
				*m.Ref(k) += 3
				ref[k] += 3
			case 2: // Get
				want, wantOK := ref[k]
				got, ok := m.Get(k)
				if ok != wantOK || got != want {
					t.Fatalf("seed %d op %d: Get(%#x) = %v,%v want %v,%v",
						seed, i, k, got, ok, want, wantOK)
				}
			}
		}
		if m.Len() != len(ref) {
			t.Fatalf("seed %d: Len = %d, want %d", seed, m.Len(), len(ref))
		}
		for k, want := range ref {
			if got, ok := m.Get(k); !ok || got != want {
				t.Fatalf("seed %d: Get(%#x) = %v,%v want %v,true", seed, k, got, ok, want)
			}
		}
	}
}

// TestU64SetSequential pins behaviour on the fully sequential key stream
// an instruction working-set analyzer produces: every key distinct and
// adjacent, forcing repeated growth.
func TestU64SetSequential(t *testing.T) {
	s := NewU64Set(0)
	const n = 1 << 16
	for i := uint64(0); i < n; i++ {
		if !s.Add(i) {
			t.Fatalf("Add(%d) reported duplicate", i)
		}
	}
	for i := uint64(0); i < n; i++ {
		if s.Add(i) {
			t.Fatalf("re-Add(%d) reported new", i)
		}
	}
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
}

// TestU64MapRefAcrossGrowth verifies the documented Ref contract: the
// pointer stays valid for immediate updates even when the insertion that
// produced it grew the table.
func TestU64MapRefAcrossGrowth(t *testing.T) {
	m := NewU64Map(0)
	for i := uint64(1); i <= 10000; i++ {
		p := m.Ref(i)
		*p = i * 7
	}
	for i := uint64(1); i <= 10000; i++ {
		if v, ok := m.Get(i); !ok || v != i*7 {
			t.Fatalf("Get(%d) = %v,%v want %d,true", i, v, ok, i*7)
		}
	}
}

// TestU64SetClear verifies a cleared set is indistinguishable from a
// fresh one over randomized workloads, including re-adding the same keys
// (pooled analyzers clear and refill the same tables every interval).
func TestU64SetClear(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		gen := keyGen(rng)
		s := NewU64Set(0)
		for round := 0; round < 3; round++ {
			ref := make(map[uint64]struct{})
			for i := 0; i < 5000; i++ {
				k := gen()
				_, had := ref[k]
				ref[k] = struct{}{}
				if added := s.Add(k); added == had {
					t.Fatalf("seed %d round %d: Add(%#x) = %v, want %v", seed, round, k, added, !had)
				}
			}
			if s.Len() != len(ref) {
				t.Fatalf("seed %d round %d: Len = %d, want %d", seed, round, s.Len(), len(ref))
			}
			s.Clear()
			if s.Len() != 0 {
				t.Fatalf("seed %d round %d: Len = %d after Clear", seed, round, s.Len())
			}
			for k := range ref {
				if s.Contains(k) {
					t.Fatalf("seed %d round %d: key %#x survived Clear", seed, round, k)
				}
			}
		}
	}
}

// TestU64MapClear verifies a cleared map behaves exactly like a fresh
// one: no keys, and all values read as zero (Ref's insert-zero
// contract).
func TestU64MapClear(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		gen := keyGen(rng)
		m := NewU64Map(0)
		for round := 0; round < 3; round++ {
			ref := make(map[uint64]uint64)
			for i := 0; i < 5000; i++ {
				k := gen()
				*m.Ref(k) += 3
				ref[k] += 3
			}
			for k, want := range ref {
				if got, ok := m.Get(k); !ok || got != want {
					t.Fatalf("seed %d round %d: Get(%#x) = %v,%v want %v,true", seed, round, k, got, ok, want)
				}
			}
			m.Clear()
			if m.Len() != 0 {
				t.Fatalf("seed %d round %d: Len = %d after Clear", seed, round, m.Len())
			}
			for k := range ref {
				if v, ok := m.Get(k); ok || v != 0 {
					t.Fatalf("seed %d round %d: Get(%#x) = %v,%v after Clear", seed, round, k, v, ok)
				}
			}
			// Refilled slots must start from zero even where the old
			// round left values behind.
			for k := range ref {
				if *m.Ref(k) != 0 {
					t.Fatalf("seed %d round %d: Ref(%#x) nonzero after Clear", seed, round, k)
				}
				break
			}
			m.Clear()
		}
	}
}

// TestClearShrinksOversizedTables pins the pooled-reuse guard: one
// outlier trace that grows a table past clearShrinkCap must not charge
// a full-capacity memset to every later interval's Clear — the table is
// reallocated at the previous occupancy instead.
func TestClearShrinksOversizedTables(t *testing.T) {
	s := NewU64Set(0)
	for i := uint64(1); i <= clearShrinkCap; i++ {
		s.Add(i)
	}
	if len(s.keys) <= clearShrinkCap {
		t.Fatalf("test premise broken: capacity %d not past threshold", len(s.keys))
	}
	for i := 0; i < 3; i++ {
		s.Clear()
	}
	if len(s.keys) > minCap {
		t.Errorf("empty-set capacity %d after Clear, want shrink to %d", len(s.keys), minCap)
	}
	if s.Len() != 0 || s.Contains(5) {
		t.Error("shrunken set not empty")
	}
	if !s.Add(5) || !s.Contains(5) {
		t.Error("shrunken set unusable")
	}

	m := NewU64Map(0)
	for i := uint64(1); i <= clearShrinkCap; i++ {
		m.Put(i, i)
	}
	if len(m.keys) <= clearShrinkCap {
		t.Fatalf("test premise broken: map capacity %d not past threshold", len(m.keys))
	}
	for i := 0; i < 3; i++ {
		m.Clear()
	}
	if len(m.keys) > minCap {
		t.Errorf("empty-map capacity %d after Clear, want shrink to %d", len(m.keys), minCap)
	}
	if *m.Ref(7) != 0 {
		t.Error("shrunken map slot not zero")
	}
}

func TestCapFor(t *testing.T) {
	for _, tc := range []struct{ hint, want int }{
		{0, minCap}, {1, minCap}, {13, minCap}, {14, 32}, {1000, 2048},
	} {
		if got := capFor(tc.hint); got != tc.want {
			t.Errorf("capFor(%d) = %d, want %d", tc.hint, got, tc.want)
		}
	}
}

func BenchmarkU64SetAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, 1<<14)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	b.Run("flathash", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := NewU64Set(0)
			for _, k := range keys {
				s.Add(k)
			}
		}
	})
	b.Run("builtin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := make(map[uint64]struct{})
			for _, k := range keys {
				s[k] = struct{}{}
			}
		}
	})
}
