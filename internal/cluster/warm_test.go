package cluster

import (
	"math/rand"
	"reflect"
	"testing"

	"mica/internal/stats"
)

// TestKMeansSeededFixedPoint: warm-starting an exact run with
// already-converged centroids reproduces the same clustering (the
// seeds are a Lloyd fixed point), and the caller's warm centroids are
// not mutated.
func TestKMeansSeededFixedPoint(t *testing.T) {
	m, _ := threeBlobs(30, 5)
	ref := KMeans(m, 3, 42)
	seeds := stats.NewMatrix(3, m.Cols)
	copy(seeds.Data, ref.Centroids.Data)
	before := append([]float64(nil), seeds.Data...)
	res := ownAssign(kmeansRun(m, 3, 1, engineLloyd, &WarmStart{Centroids: seeds}, newScratch()))
	if !reflect.DeepEqual(res.Assign, ref.Assign) {
		t.Fatal("seeding with converged centroids changed the assignment")
	}
	if res.SSE > ref.SSE*(1+1e-12) {
		t.Fatalf("warm SSE %v worse than the seeds' %v", res.SSE, ref.SSE)
	}
	if !reflect.DeepEqual(seeds.Data, before) {
		t.Fatal("the warm run mutated the caller's seed matrix")
	}
}

// TestWarmSweepMatchesFreshK: a sweep warm-started from a previous
// selection's centroids chooses the same K as a fresh sweep on the
// same (well-separated) data, with an SSE at the chosen K no worse
// than the warm seeds allow.
func TestWarmSweepMatchesFreshK(t *testing.T) {
	m, _ := threeBlobs(40, 9)
	fresh := SelectK(m, 6, 42)
	warm := sweep(t, m, 6, 42, SweepOptions{Warm: &WarmStart{
		Centroids: fresh.Best.Centroids,
		Counts:    occupancy(fresh.Best),
	}}, engineAuto)
	if warm.Best.K != fresh.Best.K {
		t.Fatalf("warm sweep chose K=%d, fresh chose K=%d", warm.Best.K, fresh.Best.K)
	}
	if warm.Best.SSE > fresh.Best.SSE*(1+1e-9) {
		t.Fatalf("warm SSE %v worse than fresh %v at the same K", warm.Best.SSE, fresh.Best.SSE)
	}
}

// TestWarmSweepDeterministic: the warm path is as deterministic as the
// fresh one.
func TestWarmSweepDeterministic(t *testing.T) {
	m, _ := threeBlobs(25, 11)
	prev := SelectK(m, 5, 7)
	w := &WarmStart{Centroids: prev.Best.Centroids, Counts: occupancy(prev.Best)}
	a := sweep(t, m, 5, 7, SweepOptions{Warm: w}, engineAuto)
	b := sweep(t, m, 5, 7, SweepOptions{Warm: w}, engineAuto)
	if !reflect.DeepEqual(a.Best.Assign, b.Best.Assign) || a.Best.K != b.Best.K {
		t.Fatal("warm sweep is not deterministic")
	}
}

// TestWarmSeedsShapes: truncation keeps the most-populated centroids,
// extension keeps every previous centroid and adds distinct new ones,
// and an exact match is a verbatim copy.
func TestWarmSeedsShapes(t *testing.T) {
	m, _ := threeBlobs(20, 3)
	prev := stats.FromRows([][]float64{{0, 0}, {10, 10}, {-10, 10}})
	w := &WarmStart{Centroids: prev, Counts: []int{5, 50, 20}}
	rng := rand.New(rand.NewSource(1))
	sc := newScratch()

	same := warmSeeds(m, 3, w, rng, sc)
	if !reflect.DeepEqual(same.Data, prev.Data) {
		t.Fatal("k == K0 is not a verbatim copy")
	}
	trunc := warmSeeds(m, 2, w, rng, sc)
	if !reflect.DeepEqual(trunc.Row(0), prev.Row(1)) || !reflect.DeepEqual(trunc.Row(1), prev.Row(2)) {
		t.Fatalf("truncation kept %v, want the two most-populated centroids", trunc.Data)
	}
	ext := warmSeeds(m, 5, w, rng, sc)
	for c := 0; c < 3; c++ {
		if !reflect.DeepEqual(ext.Row(c), prev.Row(c)) {
			t.Fatalf("extension rewrote previous centroid %d", c)
		}
	}
	for c := 3; c < 5; c++ {
		for p := 0; p < 3; p++ {
			if reflect.DeepEqual(ext.Row(c), prev.Row(p)) {
				t.Fatalf("extension duplicated previous centroid %d", p)
			}
		}
	}
	// Without Counts, truncation keeps the first k rows.
	noCounts := warmSeeds(m, 2, &WarmStart{Centroids: prev}, rng, sc)
	if !reflect.DeepEqual(noCounts.Row(0), prev.Row(0)) || !reflect.DeepEqual(noCounts.Row(1), prev.Row(1)) {
		t.Fatal("count-less truncation did not keep the first rows")
	}
}

// TestWarmMismatchedDimsFallsBack: a warm start whose centroids do not
// match the data's dimensionality is ignored — the sweep is
// bit-identical to a fresh one.
func TestWarmMismatchedDimsFallsBack(t *testing.T) {
	m, _ := threeBlobs(20, 4)
	bad := &WarmStart{Centroids: stats.NewMatrix(3, 7)}
	fresh := SelectK(m, 4, 13)
	got := sweep(t, m, 4, 13, SweepOptions{Warm: bad}, engineAuto)
	if !reflect.DeepEqual(got.Best.Assign, fresh.Best.Assign) || got.Best.K != fresh.Best.K {
		t.Fatal("mismatched warm centroids perturbed the sweep")
	}
}

// TestWarmMiniBatchEngine: the warm minibatch path (sampled refinement
// without restarts) recovers the blob partition when seeded from a
// previous exact run.
func TestWarmMiniBatchEngine(t *testing.T) {
	m, _ := bigBlobs(2000, 2) // above the fallback threshold: real sampled path
	prev := KMeans(m, 3, 42)
	sel := sweep(t, m, 3, 42, SweepOptions{
		Warm: &WarmStart{Centroids: prev.Centroids, Counts: occupancy(prev)},
	}, engineMiniBatch)
	if sel.Best.K != 3 {
		t.Fatalf("warm minibatch sweep chose K=%d, want 3", sel.Best.K)
	}
	if !samePartition(prev.Assign, sel.Best.Assign) {
		t.Fatal("warm minibatch diverged from the seeded partition on separated blobs")
	}
}

// occupancy derives per-cluster row counts from a Result.
func occupancy(r Result) []int {
	counts := make([]int, r.K)
	for _, c := range r.Assign {
		counts[c]++
	}
	return counts
}

// samePartition reports whether two assignments induce the same
// partition up to label renaming.
func samePartition(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	fwd := map[int]int{}
	rev := map[int]int{}
	for i := range a {
		if m, ok := fwd[a[i]]; ok && m != b[i] {
			return false
		}
		if m, ok := rev[b[i]]; ok && m != a[i] {
			return false
		}
		fwd[a[i]], rev[b[i]] = b[i], a[i]
	}
	return true
}
