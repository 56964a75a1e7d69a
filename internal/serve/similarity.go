package serve

import (
	"fmt"
	"math"
	"sort"

	"mica/internal/ivstore"
	"mica/internal/pca"
	"mica/internal/stats"
)

// Similarity answers the paper's headline query — "which benchmarks
// are nearest to X in the normalized PCA space" — from a warm store's
// vectors, read once at build time, without touching a VM. Each benchmark's signature is
// the instruction-weighted mean of its interval vectors (what a full
// profile of the characterized trace measures, assembled from the
// shards already on disk); signatures are z-score normalized across
// benchmarks and projected onto the principal components, exactly the
// paper's Section V-C pipeline. An optional phase space answers the
// same query over the joint vocabulary's occupancy rows instead.
type Similarity struct {
	names  []string
	index  map[string]int
	norm   *stats.Matrix // z-scored signatures, benchmarks x dims
	coords *stats.Matrix // PCA coordinates, benchmarks x pcaK

	pcaK      int
	explained float64

	occ *stats.Matrix // joint-vocabulary occupancy rows; nil without a joint result
}

// SpacePCA and SpacePhase name the two query spaces.
const (
	SpacePCA   = "pca"
	SpacePhase = "phase"
)

// Neighbor is one similarity answer.
type Neighbor struct {
	Name     string  `json:"name"`
	Distance float64 `json:"distance"`
}

// BuildSimilarity assembles the index from a committed store's
// shards, reading each once. pcaFrac selects how much variance the retained components
// must explain (<= 0 means 0.9). occ, when non-nil, is the joint
// vocabulary's benchmarks-by-phases occupancy matrix in the store's
// shard order, enabling the phase space.
func BuildSimilarity(st *ivstore.Store, pcaFrac float64, occ *stats.Matrix) (*Similarity, error) {
	shards := st.Shards()
	if len(shards) < 2 {
		return nil, fmt.Errorf("serve: similarity needs at least 2 benchmarks in the store, have %d", len(shards))
	}
	if pcaFrac <= 0 {
		pcaFrac = 0.9
	}
	if occ != nil && occ.Rows != len(shards) {
		return nil, fmt.Errorf("serve: occupancy has %d rows, store has %d shards", occ.Rows, len(shards))
	}
	s := &Similarity{
		names: st.Benchmarks(),
		index: make(map[string]int, len(shards)),
		occ:   occ,
	}
	sigs := stats.NewMatrix(len(shards), st.Dims()) // raw signatures
	for i, name := range s.names {
		s.index[name] = i
	}
	for i := range shards {
		data, err := st.ReadShard(i)
		if err != nil {
			return nil, fmt.Errorf("serve: building similarity index: %w", err)
		}
		sig := sigs.Row(i)
		var total float64
		for r := 0; r < data.Vecs.Rows; r++ {
			w := float64(data.Insts[r])
			total += w
			row := data.Vecs.Row(r)
			for j, v := range row {
				sig[j] += w * v
			}
		}
		if total > 0 {
			for j := range sig {
				sig[j] /= total
			}
		}
	}
	s.norm = stats.ZScoreNormalize(sigs)
	fit := pca.Fit(s.norm)
	s.pcaK = fit.ComponentsNeeded(pcaFrac)
	s.explained = fit.ExplainedVariance(s.pcaK)
	s.coords = fit.Transform(s.norm, s.pcaK)
	return s, nil
}

// Components returns the retained PCA dimensionality and the variance
// fraction it explains.
func (s *Similarity) Components() (k int, explained float64) {
	return s.pcaK, s.explained
}

// NormRow returns benchmark name's z-scored signature, or false if it
// is not indexed. The returned slice is the index's own storage.
func (s *Similarity) NormRow(name string) ([]float64, bool) {
	i, ok := s.index[name]
	if !ok {
		return nil, false
	}
	return s.norm.Row(i), true
}

// Nearest returns the k benchmarks closest to name (excluding itself)
// in the requested space, nearest first; ties break by store order so
// answers are deterministic.
func (s *Similarity) Nearest(name string, k int, space string) ([]Neighbor, error) {
	q, ok := s.index[name]
	if !ok {
		return nil, fmt.Errorf("serve: benchmark %q is not in the store", name)
	}
	var m *stats.Matrix
	switch space {
	case "", SpacePCA:
		m = s.coords
	case SpacePhase:
		if s.occ == nil {
			return nil, fmt.Errorf("serve: phase space not available (no joint vocabulary loaded)")
		}
		m = s.occ
	default:
		return nil, fmt.Errorf("serve: unknown similarity space %q (want %q or %q)", space, SpacePCA, SpacePhase)
	}
	if k <= 0 {
		k = 5
	}
	if k > len(s.names)-1 {
		k = len(s.names) - 1
	}
	qrow := m.Row(q)
	all := make([]Neighbor, 0, len(s.names)-1)
	for i, name := range s.names {
		if i == q {
			continue
		}
		var d2 float64
		row := m.Row(i)
		for j, v := range row {
			diff := v - qrow[j]
			d2 += diff * diff
		}
		all = append(all, Neighbor{Name: name, Distance: math.Sqrt(d2)})
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].Distance < all[b].Distance })
	return all[:k], nil
}
