package featsel

import (
	"math"
	"math/rand"
	"testing"

	"mica/internal/stats"
)

// redundantData builds a dataset with three independent signal columns
// and redundant/noise columns derived from them:
//
//	col 0: signal A
//	col 1: signal B
//	col 2: signal C
//	col 3: copy of A (+tiny noise)     <- redundant
//	col 4: copy of B (+tiny noise)     <- redundant
//	col 5: 0.5*A + 0.5*B               <- redundant combination
func redundantData(n int, seed int64) *stats.Matrix {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, n)
	for i := range rows {
		a, b, c := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		rows[i] = []float64{
			a, b, c,
			a + rng.NormFloat64()*0.01,
			b + rng.NormFloat64()*0.01,
			0.5*a + 0.5*b,
		}
	}
	return stats.ZScoreNormalize(stats.FromRows(rows))
}

func TestDistanceCacheMatchesDirect(t *testing.T) {
	m := redundantData(20, 1)
	cache := NewDistanceCache(m)
	direct := stats.PairwiseDistances(m)
	cached := cache.FullDistances()
	if len(direct) != len(cached) {
		t.Fatal("length mismatch")
	}
	for i := range direct {
		if math.Abs(direct[i]-cached[i]) > 1e-9 {
			t.Fatalf("pair %d: %g vs %g", i, direct[i], cached[i])
		}
	}
}

func TestSubsetDistancesMatchSelectColumns(t *testing.T) {
	m := redundantData(15, 2)
	cache := NewDistanceCache(m)
	cols := []int{0, 2, 5}
	got := cache.SubsetDistances(cols)
	want := stats.PairwiseDistances(m.SelectColumns(cols))
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("pair %d: %g vs %g", i, got[i], want[i])
		}
	}
}

func TestRhoFullIsOne(t *testing.T) {
	m := redundantData(25, 3)
	cache := NewDistanceCache(m)
	all := make([]int, m.Cols)
	for j := range all {
		all[j] = j
	}
	if rho := cache.RhoSubset(all); math.Abs(rho-1) > 1e-12 {
		t.Errorf("rho of full subset = %g, want 1", rho)
	}
}

func TestCorrelationEliminationDropsRedundantFirst(t *testing.T) {
	m := redundantData(100, 4)
	ce := CorrelationElimination(m)
	if len(ce.RemovalOrder) != m.Cols-1 {
		t.Fatalf("removal order has %d entries, want %d", len(ce.RemovalOrder), m.Cols-1)
	}
	// The first three removals must all be redundant columns (0,1,3,4,5
	// are correlated; 2 is independent and must survive long).
	for _, j := range ce.RemovalOrder[:3] {
		if j == 2 {
			t.Errorf("independent column 2 removed early (order %v)", ce.RemovalOrder)
		}
	}
	// Retained(3) should keep column 2.
	kept := ce.Retained(3)
	found := false
	for _, j := range kept {
		if j == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("Retained(3) = %v does not keep independent column 2", kept)
	}
}

func TestRetainedBounds(t *testing.T) {
	m := redundantData(30, 5)
	ce := CorrelationElimination(m)
	if got := ce.Retained(0); len(got) != 1 {
		t.Errorf("Retained(0) = %v, want 1 column", got)
	}
	if got := ce.Retained(100); len(got) != m.Cols {
		t.Errorf("Retained(100) = %v, want all columns", got)
	}
}

func TestCECurveIncreasesWithSubsetSize(t *testing.T) {
	m := redundantData(60, 6)
	curve := CECurve(NewDistanceCache(m), m)
	if len(curve) != m.Cols {
		t.Fatal("curve length wrong")
	}
	if curve[m.Cols-1] < 0.999 {
		t.Errorf("rho with all columns = %g, want ~1", curve[m.Cols-1])
	}
	// Broad trend: the best achievable rho at size 3 must be high for
	// this dataset (3 true signals).
	if curve[2] < 0.9 {
		t.Errorf("rho at 3 retained = %g, want > 0.9 (3 true signals)", curve[2])
	}
}

func TestGASelectFindsCompactAccurateSubset(t *testing.T) {
	m := redundantData(80, 7)
	res := GASelect(NewDistanceCache(m), GAConfig{Seed: 17})
	if len(res.Selected) == 0 {
		t.Fatal("GA selected nothing")
	}
	if len(res.Selected) > 4 {
		t.Errorf("GA selected %d of 6 columns (%v), want <= 4 given redundancy", len(res.Selected), res.Selected)
	}
	// With N=6 each extra column costs 1/6 of fitness, so the optimum
	// trades some rho for compactness; 0.9 is the right bar here.
	if res.Rho < 0.9 {
		t.Errorf("GA subset rho = %g, want > 0.9", res.Rho)
	}
	wantFit := res.Rho * (1 - float64(len(res.Selected))/float64(m.Cols))
	if math.Abs(res.Fitness-wantFit) > 1e-9 {
		t.Errorf("fitness = %g, want rho*(1-n/N) = %g", res.Fitness, wantFit)
	}
}

func TestGASelectDeterministic(t *testing.T) {
	m := redundantData(40, 8)
	cache := NewDistanceCache(m)
	a := GASelect(cache, GAConfig{Seed: 9})
	b := GASelect(cache, GAConfig{Seed: 9})
	if len(a.Selected) != len(b.Selected) || a.Rho != b.Rho {
		t.Error("same seed gave different GA selections")
	}
}

func TestGABeatsCEAtSameCardinality(t *testing.T) {
	// The paper's headline comparison (Figure 5): at the GA's chosen
	// subset size, the GA subset correlates at least as well as the CE
	// subset of the same size.
	m := redundantData(80, 10)
	cache := NewDistanceCache(m)
	gaRes := GASelect(cache, GAConfig{Seed: 21})
	ce := CorrelationElimination(m)
	ceRho := cache.RhoSubset(ce.Retained(len(gaRes.Selected)))
	if gaRes.Rho+1e-9 < ceRho {
		t.Errorf("GA rho %g below CE rho %g at equal cardinality %d",
			gaRes.Rho, ceRho, len(gaRes.Selected))
	}
}

// TestRhoMatchesPearsonBitwise pins the blocked, allocation-free Rho to
// its definition, stats.Pearson(full, distancesMask(mask)), bit for bit:
// over random masks of every density, the empty mask, the full mask and
// nil. 70 rows give 2415 pairs, several Rho blocks plus a partial one.
func TestRhoMatchesPearsonBitwise(t *testing.T) {
	const rows, cols = 70, 47
	rng := rand.New(rand.NewSource(15))
	raw := stats.NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			raw.Set(i, j, rng.NormFloat64()*float64(1+j%5)+float64(j))
		}
	}
	cache := NewDistanceCache(stats.ZScoreNormalize(raw))

	check := func(mask []bool) {
		t.Helper()
		got, want := cache.Rho(mask), stats.Pearson(cache.full, cache.distancesMask(mask))
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Rho(%v) = %v, Pearson = %v", mask, got, want)
		}
	}
	check(nil)
	check(make([]bool, cols))
	all := make([]bool, cols)
	for j := range all {
		all[j] = true
	}
	check(all)
	for trial := 0; trial < 1000; trial++ {
		density := rng.Float64()
		mask := make([]bool, cols)
		for j := range mask {
			mask[j] = rng.Float64() < density
		}
		check(mask)
	}
}

func TestRhoAllocationFree(t *testing.T) {
	cache := NewDistanceCache(redundantData(40, 11))
	mask := []bool{true, false, true, true, false, true}
	cache.Rho(mask) // warm the buffer pool
	if allocs := testing.AllocsPerRun(100, func() { cache.Rho(mask) }); allocs != 0 {
		t.Errorf("Rho allocates %v times per call, want 0", allocs)
	}
}
