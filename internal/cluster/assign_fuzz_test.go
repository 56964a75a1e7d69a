package cluster

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"mica/internal/stats"
)

// fullScan is the reference assignment the bounded pass must match:
// every row against every centroid with sqDist, strict less-than, no
// bounds.
func fullScan(m, cents *stats.Matrix, assign, counts []int) float64 {
	clear(counts)
	sse := 0.0
	for i := 0; i < m.Rows; i++ {
		best, bestD := 0, math.Inf(1)
		for c := 0; c < cents.Rows; c++ {
			if d := sqDist(m.Row(i), cents.Row(c)); d < bestD {
				best, bestD = c, d
			}
		}
		assign[i] = best
		counts[best]++
		sse += bestD
	}
	return sse
}

// Shape flags of FuzzAssignBounded's inputs.
const (
	fuzzDupRows  = 1 << iota // rows repeat a few distinct rows: exact ties
	fuzzGrid                 // coordinates on a 3-point grid: exact ties
	fuzzInfRow               // one row holds +Inf
	fuzzNaNRow               // one row holds NaN
	fuzzDupCents             // centroids repeat: the copies stay empty
	fuzzFarCent              // the last centroid sits far from every row
)

// fuzzScales are the magnitudes FuzzAssignBounded draws coordinates
// at: unit, huge (squares near 1e300), subnormal (every square
// underflows), tiny (squares in the subnormal range) and overflowing
// (squared distances reach +Inf).
var fuzzScales = []float64{1, 1e150, 1e-318, 1e-160, 1e154}

// FuzzAssignBounded runs several rounds of the bounded assignment pass
// and the centroid update (which decays or clears the bounds) beside
// the plain full scan of fullScan, from the same data and seeds. The
// assignments, counts, change flags, SSE bits and centroid bits must
// match after every round. The seed corpus covers exact ties
// (duplicate rows and centroids), forced empty-cluster reseeds, huge,
// overflowing and subnormal magnitudes, and Inf/NaN rows; its
// overflowing case fails if an infinite runner-up distance is kept as
// a bound.
//
// The seed corpus runs as an ordinary test (`go test` executes fuzz
// seeds without -fuzz); `go test -fuzz=FuzzAssignBounded
// ./internal/cluster` explores further.
func FuzzAssignBounded(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(3), uint8(4), uint8(0), uint8(0), uint8(6))
	f.Add(int64(2), uint8(50), uint8(2), uint8(6), uint8(0), uint8(fuzzDupRows|fuzzDupCents), uint8(5))
	f.Add(int64(3), uint8(30), uint8(4), uint8(5), uint8(0), uint8(fuzzGrid), uint8(5))
	f.Add(int64(4), uint8(60), uint8(3), uint8(4), uint8(0), uint8(fuzzFarCent), uint8(4))
	f.Add(int64(5), uint8(45), uint8(5), uint8(3), uint8(1), uint8(0), uint8(6))
	f.Add(int64(6), uint8(45), uint8(5), uint8(3), uint8(2), uint8(fuzzDupRows), uint8(4))
	f.Add(int64(7), uint8(45), uint8(5), uint8(3), uint8(3), uint8(0), uint8(6))
	f.Add(int64(8), uint8(35), uint8(3), uint8(4), uint8(0), uint8(fuzzInfRow), uint8(4))
	f.Add(int64(9), uint8(35), uint8(3), uint8(4), uint8(0), uint8(fuzzNaNRow), uint8(4))
	f.Add(int64(3), uint8(63), uint8(3), uint8(5), uint8(4), uint8(fuzzGrid), uint8(5))
	f.Add(int64(10), uint8(63), uint8(7), uint8(9), uint8(1), uint8(fuzzGrid|fuzzDupCents|fuzzFarCent), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, dRaw, kRaw, scaleRaw, flags, roundsRaw uint8) {
		n := 1 + int(nRaw)%64
		d := 1 + int(dRaw)%8
		k := 1 + int(kRaw)%10
		rounds := 1 + int(roundsRaw)%8
		scale := fuzzScales[int(scaleRaw)%len(fuzzScales)]
		rng := rand.New(rand.NewSource(seed))

		m := stats.NewMatrix(n, d)
		for i := 0; i < n; i++ {
			row := m.Row(i)
			if flags&fuzzDupRows != 0 && i >= 3 {
				copy(row, m.Row(i%3))
				continue
			}
			for j := range row {
				if flags&fuzzGrid != 0 {
					row[j] = float64(rng.Intn(3)) * scale
				} else {
					row[j] = rng.NormFloat64() * scale
				}
			}
		}
		if flags&fuzzInfRow != 0 {
			m.Row(rng.Intn(n))[rng.Intn(d)] = math.Inf(1)
		}
		if flags&fuzzNaNRow != 0 {
			m.Row(rng.Intn(n))[rng.Intn(d)] = math.NaN()
		}

		cents := stats.NewMatrix(k, d)
		for c := 0; c < k; c++ {
			if flags&fuzzDupCents != 0 && c%2 == 1 {
				copy(cents.Row(c), cents.Row(c-1))
				continue
			}
			copy(cents.Row(c), m.Row(rng.Intn(n)))
		}
		if flags&fuzzFarCent != 0 {
			for j := range cents.Row(k - 1) {
				cents.Row(k - 1)[j] = 1e3 * scale
			}
		}
		ref := stats.NewMatrix(k, d)
		copy(ref.Data, cents.Data)

		assign, counts := make([]int, n), make([]int, k)
		lower, prev := make([]float64, n), make([]float64, k*d)
		refAssign, refCounts := make([]int, n), make([]int, k)
		refLower, refPrev := make([]float64, n), make([]float64, k*d)
		for r := 0; r < rounds; r++ {
			before := slices.Clone(refAssign)
			sse, changed := assignAll(m, cents, assign, counts, lower)
			refSSE := fullScan(m, ref, refAssign, refCounts)
			if !slices.Equal(assign, refAssign) {
				t.Fatalf("round %d: assign %v, full scan %v", r, assign, refAssign)
			}
			if !slices.Equal(counts, refCounts) {
				t.Fatalf("round %d: counts %v, full scan %v", r, counts, refCounts)
			}
			if math.Float64bits(sse) != math.Float64bits(refSSE) {
				t.Fatalf("round %d: SSE %v, full scan %v (bits differ)", r, sse, refSSE)
			}
			if want := !slices.Equal(before, refAssign); changed != want {
				t.Fatalf("round %d: changed = %v, want %v", r, changed, want)
			}
			updateCentroids(m, cents, assign, counts, lower, prev)
			updateCentroids(m, ref, refAssign, refCounts, refLower, refPrev)
			for i := range ref.Data {
				if math.Float64bits(cents.Data[i]) != math.Float64bits(ref.Data[i]) {
					t.Fatalf("round %d: centroid element %d is %v, full scan %v", r, i, cents.Data[i], ref.Data[i])
				}
			}
		}
	})
}
