package mica

import (
	"fmt"
	"sort"

	"mica/internal/cluster"
	"mica/internal/featsel"
	"mica/internal/kiviat"
	"mica/internal/pca"
	"mica/internal/roc"
	"mica/internal/stats"
)

// Re-exported analysis types.
type (
	// Matrix is a dense benchmarks-by-characteristics matrix.
	Matrix = stats.Matrix
	// Quadrants is the Table III classification of benchmark tuples.
	Quadrants = roc.Quadrants
	// ROCPoint is one Figure 4 ROC curve point.
	ROCPoint = roc.Point
	// GAResult is the outcome of GA key-characteristic selection.
	GAResult = featsel.GAResult
	// CEResult is the outcome of correlation elimination.
	CEResult = featsel.CEResult
	// ClusterSelection is the BIC-selected clustering of Figure 6.
	ClusterSelection = cluster.Selection
	// KiviatDiagram is a renderable kiviat plot.
	KiviatDiagram = kiviat.Diagram
	// PCAResult is a fitted principal-components baseline.
	PCAResult = pca.Result
)

// DefaultThresholdFraction is the paper's 20%-of-max distance threshold.
const DefaultThresholdFraction = roc.DefaultThresholdFraction

// Space is the workload space built from profiled benchmarks: the raw and
// z-score-normalized data matrices for both characterizations, plus the
// pairwise benchmark-tuple distances the paper's analyses operate on.
type Space struct {
	Names  []string
	Suites []string

	// Chars and HPC are the raw measurement matrices (rows follow
	// Names).
	Chars *Matrix
	HPC   *Matrix

	// NormChars and NormHPC are the z-score normalized matrices. As in
	// the paper, the HPC distance space is built from the true counter
	// metrics only (the first NumHPCCounterMetrics columns); the
	// instruction-mix tail of HPC is used only for the Figure 2
	// comparison.
	NormChars *Matrix
	NormHPC   *Matrix

	// CharDist and HPCDist are pairwise benchmark-tuple distances in
	// canonical pair order.
	CharDist []float64
	HPCDist  []float64

	cache *featsel.DistanceCache
}

// NewSpace assembles a Space from profiling results.
func NewSpace(results []ProfileResult) *Space {
	s := &Space{
		Names:  make([]string, len(results)),
		Suites: make([]string, len(results)),
		Chars:  stats.NewMatrix(len(results), NumChars),
		HPC:    stats.NewMatrix(len(results), NumHPCMetrics),
	}
	for i, r := range results {
		s.Names[i] = r.Benchmark.Name()
		s.Suites[i] = r.Benchmark.Suite
		copy(s.Chars.Row(i), r.Chars[:])
		copy(s.HPC.Row(i), r.HPC[:])
	}
	s.NormChars = stats.ZScoreNormalize(s.Chars)
	counterCols := make([]int, NumHPCCounterMetrics)
	for i := range counterCols {
		counterCols[i] = i
	}
	s.NormHPC = stats.ZScoreNormalize(s.HPC.SelectColumns(counterCols))
	s.CharDist = stats.PairwiseDistances(s.NormChars)
	s.HPCDist = stats.PairwiseDistances(s.NormHPC)
	s.cache = featsel.NewDistanceCache(s.NormChars)
	return s
}

// Len returns the number of benchmarks in the space.
func (s *Space) Len() int { return len(s.Names) }

// PairIndex returns the index of pair (i, j) into CharDist/HPCDist.
func (s *Space) PairIndex(i, j int) int { return stats.PairIndex(s.Len(), i, j) }

// DistanceCorrelation is the Figure 1 statistic: the Pearson correlation
// between benchmark-tuple distances in the HPC space and in the
// microarchitecture-independent space. The paper reports a modest 0.46.
func (s *Space) DistanceCorrelation() float64 {
	return stats.Pearson(s.HPCDist, s.CharDist)
}

// ClassifyTuples is the Table III experiment: quadrant classification of
// all benchmark tuples with both thresholds at frac of the maximum
// distance in their space (the paper uses 0.20).
func (s *Space) ClassifyTuples(frac float64) Quadrants {
	return roc.ClassifyAtFraction(s.HPCDist, s.CharDist, frac)
}

// SubsetDistances returns pairwise distances using only the listed
// characteristics of the normalized µarch-independent space.
func (s *Space) SubsetDistances(cols []int) []float64 {
	return s.cache.SubsetDistances(cols)
}

// SubsetRho is the Figure 5 statistic: the correlation between full-space
// and subset-space benchmark-tuple distances.
func (s *Space) SubsetRho(cols []int) float64 {
	return s.cache.RhoSubset(cols)
}

// ROCCurve computes the Figure 4 ROC curve for a characteristic subset
// (nil means all 47): the HPC threshold is fixed at hpcFrac of maximum,
// the µarch-independent threshold sweeps.
func (s *Space) ROCCurve(cols []int, hpcFrac float64) []ROCPoint {
	dist := s.CharDist
	if cols != nil {
		dist = s.SubsetDistances(cols)
	}
	return roc.Curve(s.HPCDist, dist, hpcFrac)
}

// AUC integrates a ROC curve.
func AUC(points []ROCPoint) float64 { return roc.AUC(points) }

// CorrelationElimination runs the Section V-A method on the normalized
// characteristic matrix.
func (s *Space) CorrelationElimination() CEResult {
	return featsel.CorrelationElimination(s.NormChars)
}

// CECurve returns the Figure 5 CE series: SubsetRho of the CE-retained
// subset for every size 1..47.
func (s *Space) CECurve() []float64 {
	return featsel.CECurve(s.cache, s.NormChars)
}

// GASelect runs the Section V-B genetic algorithm. Seed 0 is a valid
// deterministic seed.
func (s *Space) GASelect(seed int64) GAResult {
	return featsel.GASelect(s.cache, featsel.GAConfig{Seed: seed})
}

// PCA fits the principal-components baseline (Section V-C) on the
// normalized characteristic matrix.
func (s *Space) PCA() PCAResult { return pca.Fit(s.NormChars) }

// Cluster runs the Figure 6 experiment: k-means over the selected
// characteristic subset (nil = all 47) for K in 1..maxK, choosing K by
// the 90%-of-max BIC rule.
func (s *Space) Cluster(cols []int, maxK int, seed int64) ClusterSelection {
	m := s.NormChars
	if cols != nil {
		m = m.SelectColumns(cols)
	}
	return cluster.SelectK(m, maxK, seed)
}

// ClusterGroups converts a clustering into benchmark-name groups,
// ordered largest first. The ordering is stable: equal-size clusters
// keep ascending cluster-id order, so repeated runs over the same
// clustering always render groups identically.
// Empty clusters (ids k-means left unassigned) are dropped, so
// renderers never show a "cluster N (0 benchmarks)" group and group
// numbering is contiguous over the populated clusters.
func (s *Space) ClusterGroups(sel ClusterSelection) [][]string {
	k := sel.Best.K
	byID := make([][]string, k)
	for i, c := range sel.Best.Assign {
		byID[c] = append(byID[c], s.Names[i])
	}
	groups := make([][]string, 0, k)
	for _, g := range byID {
		if len(g) > 0 {
			groups = append(groups, g)
		}
	}
	sort.SliceStable(groups, func(a, b int) bool {
		return len(groups[a]) > len(groups[b])
	})
	return groups
}

// Kiviat builds a kiviat diagram for one benchmark over the selected
// characteristics (typically the 8 GA-selected ones; nil means all 47,
// the same convention as ROCCurve and Cluster),
// with axes scaled to [0,1] by min-max normalization across the whole
// space, as in Figure 6.
func (s *Space) Kiviat(benchIdx int, cols []int) (*KiviatDiagram, error) {
	if benchIdx < 0 || benchIdx >= s.Len() {
		return nil, fmt.Errorf("mica: benchmark index %d out of range", benchIdx)
	}
	if cols == nil {
		cols = make([]int, NumChars)
		for i := range cols {
			cols[i] = i
		}
	}
	sub := s.NormChars.SelectColumns(cols)
	mm := stats.MinMaxNormalizeColumns(sub)
	labels := make([]string, len(cols))
	for i, c := range cols {
		labels[i] = CharName(c)
	}
	return kiviat.New(s.Names[benchIdx], labels, mm.Row(benchIdx))
}
