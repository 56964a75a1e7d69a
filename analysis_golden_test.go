package mica

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// The analysis golden pins the paper's downstream science, not just the
// raw vectors: the Figure 1 correlation, the Table III quadrants, the
// Table IV GA selection, the correlation-elimination order, the
// Figure 5 CE series, the Figure 4 AUCs and the Figure 6 clusters
// (K, assignment and every BIC score of the default K = 1..70 sweep),
// all from Analyze over the full 122-benchmark registry, plus the
// sha256 of every rendered table, figure and report. Every
// optimization of the ROC sweep, the GA or its fitness must leave
// these bit-for-bit unchanged.
//
// Regenerate with: go test -run TestAnalysisGolden -update-analysis-golden .
// Only do so for changes that intentionally alter the analysis.

var updateAnalysisGolden = flag.Bool("update-analysis-golden", false, "rewrite testdata/analysis_golden.json")

// analysisGoldenBudget keeps the registry profile quick while leaving
// every benchmark distinct in both spaces.
const analysisGoldenBudget = 20_000

type analysisGolden struct {
	Budget         uint64          `json:"budget"`
	Rho            float64         `json:"rho"`
	Tuples         Quadrants       `json:"tuples"`
	GASelected     []int           `json:"ga_selected"`
	GARho          float64         `json:"ga_rho"`
	GAFitness      float64         `json:"ga_fitness"`
	GAGenerations  int             `json:"ga_generations"`
	CERemovalOrder []int           `json:"ce_removal_order"`
	CECurve        []float64       `json:"ce_curve"`
	AUCAll         float64         `json:"auc_all"`
	AUCGA          float64         `json:"auc_ga"`
	AUCCE          map[int]float64 `json:"auc_ce"`
	ClusterK       int             `json:"cluster_k"`
	ClusterAssign  []int           `json:"cluster_assign"`
	ClusterScores  []float64       `json:"cluster_scores"`
	// RenderSHA256 maps each rendered table, figure and report to the
	// hex sha256 of its text.
	RenderSHA256 map[string]string `json:"render_sha256"`
}

func analysisGoldenRun(t *testing.T) analysisGolden {
	t.Helper()
	cfg := DefaultConfig()
	cfg.InstBudget = analysisGoldenBudget
	res, err := ProfileBenchmarksCtx(context.Background(), Benchmarks(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := Analyze(res, DefaultAnalysisConfig())
	renders := map[string]string{
		"table_i":          RenderTableI(res),
		"table_ii":         RenderTableII(res),
		"figure_1":         a.RenderFigure1(),
		"figure_2":         a.RenderFigure2(),
		"figure_3":         a.RenderFigure3(),
		"table_iii":        a.RenderTableIII(),
		"figure_4":         a.RenderFigure4(),
		"figure_5":         a.RenderFigure5(),
		"table_iv":         a.RenderTableIV(),
		"figure_6":         a.RenderFigure6(true),
		"suite_similarity": a.SuiteSimilarityReport(),
	}
	for name, text := range renders {
		sum := sha256.Sum256([]byte(text))
		renders[name] = hex.EncodeToString(sum[:])
	}
	return analysisGolden{
		Budget:         analysisGoldenBudget,
		Rho:            a.Rho,
		Tuples:         a.Tuples,
		GASelected:     a.GA.Selected,
		GARho:          a.GA.Rho,
		GAFitness:      a.GA.Fitness,
		GAGenerations:  a.GA.Generations,
		CERemovalOrder: a.CE.RemovalOrder,
		CECurve:        a.CECurve,
		AUCAll:         a.AUCAll,
		AUCGA:          a.AUCGA,
		AUCCE:          a.AUCCE,
		ClusterK:       a.Clusters.Best.K,
		ClusterAssign:  a.Clusters.Best.Assign,
		ClusterScores:  a.Clusters.Scores,
		RenderSHA256:   renders,
	}
}

func TestAnalysisGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles the full registry")
	}
	path := filepath.Join("testdata", "analysis_golden.json")
	got := analysisGoldenRun(t)

	if *updateAnalysisGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading analysis golden (regenerate with -update-analysis-golden): %v", err)
	}
	var want analysisGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if want.Budget != analysisGoldenBudget {
		t.Fatalf("golden recorded at budget %d, test runs %d", want.Budget, analysisGoldenBudget)
	}

	// JSON float64 encoding is the shortest exact round trip, so bit
	// equality is the right comparison.
	sameBits := func(name string, g, w float64) {
		t.Helper()
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Errorf("%s = %v, want %v (bits differ)", name, g, w)
		}
	}
	sameBits("Rho", got.Rho, want.Rho)
	if got.Tuples != want.Tuples {
		t.Errorf("Tuples = %+v, want %+v", got.Tuples, want.Tuples)
	}
	if !slices.Equal(got.GASelected, want.GASelected) {
		t.Errorf("GA.Selected = %v, want %v", got.GASelected, want.GASelected)
	}
	sameBits("GA.Rho", got.GARho, want.GARho)
	sameBits("GA.Fitness", got.GAFitness, want.GAFitness)
	if got.GAGenerations != want.GAGenerations {
		t.Errorf("GA.Generations = %d, want %d", got.GAGenerations, want.GAGenerations)
	}
	if !slices.Equal(got.CERemovalOrder, want.CERemovalOrder) {
		t.Errorf("CE.RemovalOrder = %v, want %v", got.CERemovalOrder, want.CERemovalOrder)
	}
	if len(got.CECurve) != len(want.CECurve) {
		t.Fatalf("CECurve has %d points, want %d", len(got.CECurve), len(want.CECurve))
	}
	for i := range want.CECurve {
		if math.Float64bits(got.CECurve[i]) != math.Float64bits(want.CECurve[i]) {
			t.Errorf("CECurve[%d] = %v, want %v", i, got.CECurve[i], want.CECurve[i])
		}
	}
	sameBits("AUCAll", got.AUCAll, want.AUCAll)
	sameBits("AUCGA", got.AUCGA, want.AUCGA)
	if len(got.AUCCE) != len(want.AUCCE) {
		t.Errorf("AUCCE has %d sizes, want %d", len(got.AUCCE), len(want.AUCCE))
	}
	for k, w := range want.AUCCE {
		sameBits("AUCCE", got.AUCCE[k], w)
	}
	if got.ClusterK != want.ClusterK {
		t.Errorf("Clusters.Best.K = %d, want %d", got.ClusterK, want.ClusterK)
	}
	if !slices.Equal(got.ClusterAssign, want.ClusterAssign) {
		t.Errorf("Clusters.Best.Assign = %v, want %v", got.ClusterAssign, want.ClusterAssign)
	}
	if len(got.ClusterScores) != len(want.ClusterScores) {
		t.Fatalf("Clusters.Scores has %d entries, want %d", len(got.ClusterScores), len(want.ClusterScores))
	}
	for i := range want.ClusterScores {
		sameBits("Clusters.Scores", got.ClusterScores[i], want.ClusterScores[i])
	}
	if len(got.RenderSHA256) != len(want.RenderSHA256) {
		t.Errorf("%d rendered outputs, golden has %d", len(got.RenderSHA256), len(want.RenderSHA256))
	}
	for name, w := range want.RenderSHA256 {
		if got.RenderSHA256[name] != w {
			t.Errorf("rendered %s has sha256 %s, want %s", name, got.RenderSHA256[name], w)
		}
	}
}
