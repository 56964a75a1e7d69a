package flathash

import (
	"encoding/binary"
	"testing"
)

// opStream decodes a fuzz byte string into container operations: each
// op consumes 1 byte of opcode and up to 8 bytes of key material.
// Short tails pad with zero, so every byte string is a valid program —
// including ones that hammer the zero key, force growth, and Clear
// mid-stream (the pooled-analyzer lifecycle).
func opStream(data []byte, apply func(op byte, key uint64)) {
	for len(data) > 0 {
		op := data[0]
		data = data[1:]
		var kb [8]byte
		n := copy(kb[:], data)
		data = data[n:]
		key := binary.LittleEndian.Uint64(kb[:])
		// A few ops bias toward small keys so collisions and
		// first-probe paths actually get exercised.
		if op&0x40 != 0 {
			key %= 16
		}
		apply(op, key)
	}
}

// FuzzU64Set mirrors an op stream against Go's built-in map: Add,
// Contains, Len and Clear must agree after every operation. The seed
// corpus runs as a normal test in CI; `go test -fuzz=FuzzU64Set
// ./internal/flathash` explores further.
func FuzzU64Set(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0}) // Add(0)
	f.Add([]byte{1, 5, 0, 0, 0, 0, 0, 0, 0, 2})
	// A growth burst: many distinct small-ish keys.
	var burst []byte
	for i := byte(1); i < 60; i++ {
		burst = append(burst, 0, i, i, 0, 0, 0, 0, 0, 0)
	}
	f.Add(burst)
	f.Add(append(burst, 3)) // growth then Clear
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewU64Set(0)
		ref := map[uint64]bool{}
		opStream(data, func(op byte, key uint64) {
			switch op & 3 {
			case 0, 1: // Add (twice as likely: growth needs inserts)
				added := s.Add(key)
				if added == ref[key] {
					t.Fatalf("Add(%d) reported added=%v but ref has=%v", key, added, ref[key])
				}
				ref[key] = true
			case 2: // Contains
				if got := s.Contains(key); got != ref[key] {
					t.Fatalf("Contains(%d) = %v, ref %v", key, got, ref[key])
				}
			case 3: // Clear
				s.Clear()
				ref = map[uint64]bool{}
			}
			if s.Len() != len(ref) {
				t.Fatalf("Len() = %d, ref %d", s.Len(), len(ref))
			}
		})
		// Closing audit: every reference key present, and a probe of
		// absent keys stays absent.
		for k := range ref {
			if !s.Contains(k) {
				t.Fatalf("key %d lost", k)
			}
			if !ref[k+1] && s.Contains(k+1) {
				t.Fatalf("phantom key %d", k+1)
			}
		}
	})
}

// FuzzU64Map mirrors an op stream against map[uint64]uint64: Put, Get,
// Ref-increment, Len and Clear must agree after every operation.
func FuzzU64Map(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 9, 0, 0, 0, 0, 0, 0, 0, 1, 9, 0, 0, 0, 0, 0, 0, 0})
	var burst []byte
	for i := byte(1); i < 60; i++ {
		burst = append(burst, 0, i, 1, 0, 0, 0, 0, 0, 0)
	}
	f.Add(burst)
	f.Add(append(burst, 3))
	f.Fuzz(func(t *testing.T, data []byte) {
		m := NewU64Map(0)
		ref := map[uint64]uint64{}
		opStream(data, func(op byte, key uint64) {
			switch op & 3 {
			case 0: // Put (value derived from key so it is checkable)
				v := key*2718281829 + 7
				m.Put(key, v)
				ref[key] = v
			case 1: // Ref increment — the analyzers' hot in-place update
				*m.Ref(key)++
				ref[key]++
			case 2: // Get
				got, ok := m.Get(key)
				want, wok := ref[key]
				if got != want || ok != wok {
					t.Fatalf("Get(%d) = (%d, %v), ref (%d, %v)", key, got, ok, want, wok)
				}
			case 3: // Clear
				m.Clear()
				ref = map[uint64]uint64{}
			}
			if m.Len() != len(ref) {
				t.Fatalf("Len() = %d, ref %d", m.Len(), len(ref))
			}
		})
		for k, want := range ref {
			if got, ok := m.Get(k); !ok || got != want {
				t.Fatalf("key %d: got (%d, %v), want %d", k, got, ok, want)
			}
		}
	})
}
