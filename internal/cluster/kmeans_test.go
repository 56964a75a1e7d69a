package cluster

import (
	"math"
	"math/rand"
	"testing"

	"mica/internal/stats"
)

// threeBlobs builds three well-separated Gaussian-ish clusters.
func threeBlobs(perCluster int, seed int64) (*stats.Matrix, []int) {
	rng := rand.New(rand.NewSource(seed))
	centers := [][]float64{{0, 0}, {10, 10}, {-10, 10}}
	rows := make([][]float64, 0, 3*perCluster)
	truth := make([]int, 0, 3*perCluster)
	for c, ctr := range centers {
		for i := 0; i < perCluster; i++ {
			rows = append(rows, []float64{
				ctr[0] + rng.NormFloat64()*0.5,
				ctr[1] + rng.NormFloat64()*0.5,
			})
			truth = append(truth, c)
		}
	}
	return stats.FromRows(rows), truth
}

func TestKMeansRecoversBlobs(t *testing.T) {
	m, truth := threeBlobs(30, 1)
	res := KMeans(m, 3, 42)
	// Every true cluster must map to exactly one k-means cluster.
	mapping := map[int]int{}
	for i, tc := range truth {
		if got, ok := mapping[tc]; ok {
			if got != res.Assign[i] {
				t.Fatalf("true cluster %d split across k-means clusters", tc)
			}
		} else {
			mapping[tc] = res.Assign[i]
		}
	}
	if len(mapping) != 3 {
		t.Error("clusters merged")
	}
}

func TestKMeansDeterministic(t *testing.T) {
	m, _ := threeBlobs(20, 2)
	a := KMeans(m, 3, 7)
	b := KMeans(m, 3, 7)
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("same seed produced different clusterings")
		}
	}
}

func TestKMeansSSEDecreasesWithK(t *testing.T) {
	m, _ := threeBlobs(20, 3)
	prev := math.Inf(1)
	for k := 1; k <= 6; k++ {
		res := KMeans(m, k, 11)
		if res.SSE > prev+1e-9 {
			t.Errorf("SSE increased at k=%d: %g > %g", k, res.SSE, prev)
		}
		prev = res.SSE
	}
}

func TestKMeansKEqualsN(t *testing.T) {
	m := stats.FromRows([][]float64{{0}, {1}, {2}})
	res := KMeans(m, 3, 5)
	if res.SSE > 1e-12 {
		t.Errorf("k=n SSE = %g, want 0", res.SSE)
	}
	seen := map[int]bool{}
	for _, c := range res.Assign {
		seen[c] = true
	}
	if len(seen) != 3 {
		t.Error("k=n did not give singleton clusters")
	}
}

func TestKMeansKGreaterThanN(t *testing.T) {
	m := stats.FromRows([][]float64{{0}, {1}})
	res := KMeans(m, 10, 5)
	if res.K != 2 {
		t.Errorf("K clamped to %d, want 2", res.K)
	}
}

func TestBICPrefersTrueK(t *testing.T) {
	m, _ := threeBlobs(40, 4)
	best, bestK := math.Inf(-1), 0
	for k := 1; k <= 8; k++ {
		res := KMeans(m, k, 13+int64(k))
		s := BIC(m, res)
		if s > best {
			best, bestK = s, k
		}
	}
	if bestK != 3 {
		t.Errorf("BIC-best K = %d, want 3", bestK)
	}
}

func TestSelectKNinetyPercentRule(t *testing.T) {
	m, _ := threeBlobs(40, 5)
	sel := SelectK(m, 10, 99)
	if sel.Best.K < 2 || sel.Best.K > 5 {
		t.Errorf("selected K = %d for 3 blobs, want near 3", sel.Best.K)
	}
	if len(sel.Scores) != 10 {
		t.Errorf("scores for %d K values, want 10", len(sel.Scores))
	}
	if sel.MaxScore == math.Inf(-1) {
		t.Error("max score not computed")
	}
}

func TestSelectKSingletonData(t *testing.T) {
	m := stats.FromRows([][]float64{{1, 2}, {1.1, 2.1}, {0.9, 1.9}})
	sel := SelectK(m, 10, 1)
	if sel.Best.K < 1 || sel.Best.K > 3 {
		t.Errorf("selected K = %d out of range", sel.Best.K)
	}
}

func TestKMeansEmptyInput(t *testing.T) {
	m := stats.NewMatrix(0, 3)
	res := KMeans(m, 3, 1)
	if len(res.Assign) != 0 {
		t.Error("empty input gave assignments")
	}
}
