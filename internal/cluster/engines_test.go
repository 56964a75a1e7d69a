package cluster

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mica/internal/stats"
)

// engines lists the Result-compatible clustering engines under their
// property-test names.
var engines = []struct {
	name string
	run  func(m *stats.Matrix, k int, seed int64) Result
}{
	{"lloyd", KMeans},
	{"minibatch", miniBatchKMeans},
}

// miniBatchKMeans runs the minibatch engine alone, as a sweep would
// for one k above the row threshold.
func miniBatchKMeans(m *stats.Matrix, k int, seed int64) Result {
	return ownAssign(kmeansRun(m, k, seed, engineMiniBatch, nil, newScratch()))
}

// sweep runs the k-sweep over an in-memory matrix with a forced
// engine.
func sweep(t *testing.T, m *stats.Matrix, maxK int, seed int64, opt SweepOptions, eng engine) Selection {
	t.Helper()
	sel, err := selectK(context.Background(), m, maxK, seed, opt, eng)
	if err != nil {
		t.Fatal(err)
	}
	return sel
}

// bigBlobs builds well-separated blobs with enough rows to exercise
// the real (non-fallback) minibatch path.
func bigBlobs(perCluster int, seed int64) (*stats.Matrix, []int) {
	rng := rand.New(rand.NewSource(seed))
	centers := [][]float64{{0, 0, 0}, {12, 12, 0}, {-12, 12, 6}}
	rows := make([][]float64, 0, 3*perCluster)
	truth := make([]int, 0, 3*perCluster)
	for c, ctr := range centers {
		for i := 0; i < perCluster; i++ {
			rows = append(rows, []float64{
				ctr[0] + rng.NormFloat64()*0.5,
				ctr[1] + rng.NormFloat64()*0.5,
				ctr[2] + rng.NormFloat64()*0.5,
			})
			truth = append(truth, c)
		}
	}
	return stats.FromRows(rows), truth
}

// TestEnginesRecoverBlobsUpToPermutation is the label-equivalence
// property: on well-separated blobs every engine must produce the same
// partition as Lloyd's, up to a renaming of cluster ids.
func TestEnginesRecoverBlobsUpToPermutation(t *testing.T) {
	m, truth := bigBlobs(2000, 1) // 6000 rows: above the minibatch fallback, real sampled path
	want := KMeans(m, 3, 42)
	for _, eng := range engines {
		res := eng.run(m, 3, 42)
		if res.K != 3 {
			t.Fatalf("%s: K = %d, want 3", eng.name, res.K)
		}
		// Build the permutation from want's labels to res's labels; it
		// must be a consistent bijection over every row.
		perm := map[int]int{}
		used := map[int]bool{}
		for i := range truth {
			w, g := want.Assign[i], res.Assign[i]
			if mapped, ok := perm[w]; ok {
				if mapped != g {
					t.Fatalf("%s: rows with Lloyd label %d split across labels %d and %d",
						eng.name, w, mapped, g)
				}
				continue
			}
			if used[g] {
				t.Fatalf("%s: label %d claimed by two Lloyd clusters", eng.name, g)
			}
			perm[w], used[g] = g, true
		}
		if len(perm) != 3 {
			t.Errorf("%s: only %d clusters recovered", eng.name, len(perm))
		}
	}
}

// TestEnginesSSEWithinFivePercent pins the engine-quality contract on
// blob fixtures: minibatch SSE within 5% of exact Lloyd's.
func TestEnginesSSEWithinFivePercent(t *testing.T) {
	m, _ := bigBlobs(2000, 2)
	for _, k := range []int{2, 3, 5} {
		exact := KMeans(m, k, 7)
		for _, eng := range engines[1:] {
			res := eng.run(m, k, 7)
			if res.SSE > exact.SSE*1.05 {
				t.Errorf("%s k=%d: SSE %.1f exceeds exact %.1f by more than 5%%",
					eng.name, k, res.SSE, exact.SSE)
			}
		}
	}
}

// TestMiniBatchSSEWithinFivePercentOverlapping is the SSE-quality
// assertion on the kind of matrix the minibatch engine exists for:
// overlapping blobs shaped like a z-scored phase-interval space, large
// enough (16k x 16) to take the real sampled path, swept across k.
func TestMiniBatchSSEWithinFivePercentOverlapping(t *testing.T) {
	m := SyntheticBlobs(16384, 16, 8, 0.8, 1.5, 9)
	for _, k := range []int{2, 4, 8} {
		seed := deriveSeed(2006, k)
		exact := KMeans(m, k, seed)
		mini := miniBatchKMeans(m, k, seed)
		if mini.SSE > exact.SSE*1.05 {
			t.Errorf("k=%d: minibatch SSE %.1f exceeds exact %.1f by more than 5%%",
				k, mini.SSE, exact.SSE)
		}
	}
}

// TestEnginesDeterministic: same input + same seed = bit-identical
// Result, for every engine.
func TestEnginesDeterministic(t *testing.T) {
	m, _ := bigBlobs(1800, 3)
	for _, eng := range engines {
		a := eng.run(m, 4, 11)
		b := eng.run(m, 4, 11)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed produced different clusterings", eng.name)
		}
	}
}

// TestEnginesEdgeCasesMatchLloyd pins k>=n, k>n, singleton and empty
// inputs to Lloyd's documented behavior for every engine.
func TestEnginesEdgeCasesMatchLloyd(t *testing.T) {
	for _, eng := range engines {
		// k == n: every point its own cluster, SSE 0.
		m := stats.FromRows([][]float64{{0}, {5}, {10}})
		res := eng.run(m, 3, 5)
		if res.SSE > 1e-12 {
			t.Errorf("%s: k=n SSE = %g, want 0", eng.name, res.SSE)
		}
		seen := map[int]bool{}
		for _, c := range res.Assign {
			seen[c] = true
		}
		if len(seen) != 3 {
			t.Errorf("%s: k=n did not give singleton clusters", eng.name)
		}

		// k > n: clamped to n.
		res = eng.run(stats.FromRows([][]float64{{0}, {1}}), 10, 5)
		if res.K != 2 {
			t.Errorf("%s: K clamped to %d, want 2", eng.name, res.K)
		}

		// Singleton input.
		res = eng.run(stats.FromRows([][]float64{{3, 4}}), 1, 5)
		if res.K != 1 || len(res.Assign) != 1 || res.Assign[0] != 0 || res.SSE != 0 {
			t.Errorf("%s: singleton input mishandled: %+v", eng.name, res)
		}

		// Empty input.
		res = eng.run(stats.NewMatrix(0, 3), 3, 1)
		if len(res.Assign) != 0 {
			t.Errorf("%s: empty input gave assignments", eng.name)
		}

		// k <= 0.
		res = eng.run(stats.FromRows([][]float64{{0}, {1}}), 0, 1)
		if res.K != 0 || len(res.Assign) != 2 {
			t.Errorf("%s: k=0 mishandled: %+v", eng.name, res)
		}
	}
}

// TestSelectKOptLloydMatchesNaive is the differential contract of the
// parallel sweep: with the exact engine forced it must be
// bit-identical to the serial reference sweep, regardless of worker
// count.
func TestSelectKOptLloydMatchesNaive(t *testing.T) {
	m, _ := bigBlobs(60, 5)
	want := SelectKNaive(m, 8, 99)
	for _, workers := range []int{1, 4} {
		got := sweep(t, m, 8, 99, SweepOptions{Workers: workers}, engineLloyd)
		if got.Best.K != want.Best.K {
			t.Fatalf("workers=%d: K %d vs naive %d", workers, got.Best.K, want.Best.K)
		}
		if !reflect.DeepEqual(got.Best.Assign, want.Best.Assign) {
			t.Errorf("workers=%d: Best.Assign diverges from naive sweep", workers)
		}
		if !reflect.DeepEqual(got.Scores, want.Scores) {
			t.Errorf("workers=%d: BIC scores diverge from naive sweep", workers)
		}
		if !reflect.DeepEqual(got.SSEs, want.SSEs) {
			t.Errorf("workers=%d: SSEs diverge from naive sweep", workers)
		}
		if got.Best.SSE != want.Best.SSE {
			t.Errorf("workers=%d: Best.SSE %g vs %g", workers, got.Best.SSE, want.Best.SSE)
		}
	}
}

// TestSelectKParallelDeterministic: the parallel sweep's outcome must
// not depend on worker count or scheduling, for the auto engine too.
func TestSelectKParallelDeterministic(t *testing.T) {
	m, _ := bigBlobs(50, 6)
	base := sweep(t, m, 6, 17, SweepOptions{Workers: 1}, engineAuto)
	for _, workers := range []int{2, 5} {
		got := sweep(t, m, 6, 17, SweepOptions{Workers: workers}, engineAuto)
		if !reflect.DeepEqual(got, base) {
			t.Errorf("workers=%d: sweep outcome differs from serial", workers)
		}
	}
}

// TestSelectKSSEsPopulated: Selection.SSEs carries one final SSE per
// swept k, positive and generally decreasing on clusterable data.
func TestSelectKSSEsPopulated(t *testing.T) {
	m, _ := bigBlobs(40, 7)
	sel := SelectK(m, 6, 3)
	if len(sel.SSEs) != 6 {
		t.Fatalf("SSEs has %d entries, want 6", len(sel.SSEs))
	}
	for i, sse := range sel.SSEs {
		if sse < 0 || math.IsNaN(sse) {
			t.Errorf("SSE[%d] = %g", i, sse)
		}
	}
	if sel.SSEs[5] >= sel.SSEs[0] {
		t.Errorf("SSE did not decrease across the sweep: %v", sel.SSEs)
	}
}

// TestSelectKDegenerate: empty matrix and maxK < 1 return an empty
// Selection instead of panicking (the pre-rework code indexed
// results[-1]).
func TestSelectKDegenerate(t *testing.T) {
	sel := SelectK(stats.NewMatrix(0, 5), 10, 1)
	if len(sel.Scores) != 0 || sel.Best.Centroids != nil {
		t.Errorf("empty-matrix sweep returned %+v", sel)
	}
	sel = SelectKNaive(stats.NewMatrix(0, 5), 10, 1)
	if len(sel.Scores) != 0 {
		t.Errorf("empty-matrix naive sweep returned %+v", sel)
	}
}

// TestDeriveSeedIndependence is the regression test for the seeding
// fix: per-k seeds must be pairwise distinct, not form the correlated
// seed+k ladder, and differ from one another in roughly half their
// bits (avalanche) so adjacent k runs draw independent k-means++
// sequences.
func TestDeriveSeedIndependence(t *testing.T) {
	const base = 2006
	seen := map[int64]bool{}
	totalBits := 0
	n := 0
	prev := deriveSeed(base, 1)
	for k := 1; k <= 70; k++ {
		s := deriveSeed(base, k)
		if seen[s] {
			t.Fatalf("derived seed for k=%d collides", k)
		}
		seen[s] = true
		if s == base+int64(k) {
			t.Errorf("k=%d: derived seed equals the old correlated seed+k scheme", k)
		}
		if k > 1 {
			diff := uint64(s ^ prev)
			bits := 0
			for diff != 0 {
				bits += int(diff & 1)
				diff >>= 1
			}
			totalBits += bits
			n++
		}
		prev = s
	}
	if avg := float64(totalBits) / float64(n); avg < 24 || avg > 40 {
		t.Errorf("adjacent derived seeds differ in %.1f bits on average, want ~32", avg)
	}
}

// TestDeriveSeedDistinctBaseSeeds: different sweep seeds produce
// different derived ladders.
func TestDeriveSeedDistinctBaseSeeds(t *testing.T) {
	if deriveSeed(1, 3) == deriveSeed(2, 3) {
		t.Error("different base seeds share a derived seed at the same k")
	}
}

// TestSelectKRowsMatchesSelectK: the cancellable, option-taking sweep
// is bit-identical to SelectK at every worker count, for the exact
// engine and for minibatch above the auto-switch threshold.
func TestSelectKRowsMatchesSelectK(t *testing.T) {
	small := SyntheticPhaseBlobs(500, 4, 7)
	big := SyntheticPhaseBlobs(9000, 6, 7) // above miniBatchRows: engineAuto picks minibatch
	for _, tc := range []struct {
		name string
		m    *stats.Matrix
	}{{"small-exact", small}, {"big-minibatch", big}} {
		want := SelectK(tc.m, 6, 2006)
		for _, workers := range []int{1, 2, 6} {
			got, err := SelectKRows(context.Background(), tc.m, 6, 2006, SweepOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s: SelectKRows at %d workers diverges from SelectK", tc.name, workers)
			}
		}
	}
}
