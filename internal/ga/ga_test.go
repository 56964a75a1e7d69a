package ga

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// onemax counts set bits: the classic GA sanity problem.
func onemax(genes []bool) float64 {
	n := 0.0
	for _, g := range genes {
		if g {
			n++
		}
	}
	return n
}

func TestRunSolvesOneMax(t *testing.T) {
	res := Run(Config{Genes: 32, Seed: 1}, onemax)
	if res.Best.Fitness < 31 {
		t.Errorf("best fitness = %g on 32-bit onemax, want >= 31", res.Best.Fitness)
	}
}

func TestRunDeterministic(t *testing.T) {
	a := Run(Config{Genes: 24, Seed: 7}, onemax)
	b := Run(Config{Genes: 24, Seed: 7}, onemax)
	if a.Best.Fitness != b.Best.Fitness || a.Generations != b.Generations {
		t.Error("same seed gave different results")
	}
	for i := range a.Best.Genes {
		if a.Best.Genes[i] != b.Best.Genes[i] {
			t.Fatal("same seed gave different genes")
		}
	}
}

func TestRunTargetSubset(t *testing.T) {
	// Fitness rewards exactly genes {2, 5, 11} and punishes others:
	// the GA should find the precise subset.
	target := map[int]bool{2: true, 5: true, 11: true}
	fit := func(genes []bool) float64 {
		score := 0.0
		for i, g := range genes {
			if g == target[i] {
				score++
			}
		}
		return score
	}
	res := Run(Config{Genes: 16, Seed: 3}, fit)
	for i, g := range res.Best.Genes {
		if g != target[i] {
			t.Errorf("gene %d = %v, want %v", i, g, target[i])
		}
	}
}

func TestHistoryMonotone(t *testing.T) {
	res := Run(Config{Genes: 20, Seed: 5}, onemax)
	for i := 1; i < len(res.History); i++ {
		if res.History[i] < res.History[i-1] {
			t.Fatal("best-so-far history decreased")
		}
	}
}

func TestStallStopsEarly(t *testing.T) {
	// Constant fitness: the run should stop after StallGenerations.
	res := Run(Config{Genes: 8, Seed: 2, StallGenerations: 5, MaxGenerations: 1000},
		func([]bool) float64 { return 1 })
	if res.Generations > 10 {
		t.Errorf("ran %d generations on flat fitness, want <= 10", res.Generations)
	}
}

func TestCountSet(t *testing.T) {
	ind := Individual{Genes: []bool{true, false, true, true}}
	if ind.CountSet() != 3 {
		t.Errorf("CountSet = %d, want 3", ind.CountSet())
	}
}

func TestZeroGenesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Run with 0 genes did not panic")
		}
	}()
	Run(Config{}, onemax)
}

func TestElitismPreservesBest(t *testing.T) {
	// A deceptive fitness where mutation usually hurts: the best found
	// must never regress thanks to elitism (checked via history).
	fit := func(genes []bool) float64 {
		v := 0.0
		for i, g := range genes {
			if g && i%2 == 0 {
				v += 2
			} else if g {
				v -= 1
			}
		}
		return v
	}
	res := Run(Config{Genes: 30, Seed: 11}, fit)
	for i := 1; i < len(res.History); i++ {
		if res.History[i] < res.History[i-1] {
			t.Fatal("elite lost between generations")
		}
	}
}

// sequentialRun is the reference GA loop: every child is scored by fit
// as soon as it is bred, one call per child, with no memo. Run must
// reproduce its Best, Generations and History exactly.
func sequentialRun(cfg Config, fit FitnessFunc) Result {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	pop := make([]Individual, cfg.PopSize)
	for i := range pop {
		genes := make([]bool, cfg.Genes)
		for j := range genes {
			genes[j] = rng.Intn(2) == 1
		}
		pop[i] = Individual{Genes: genes, Fitness: fit(genes)}
	}
	best := bestOf(pop).clone()
	stall := 0
	var history []float64
	gen := 0
	for ; gen < cfg.MaxGenerations && stall < cfg.StallGenerations; gen++ {
		next := make([]Individual, 0, cfg.PopSize)
		order := sortedByFitness(pop)
		for i := 0; i < cfg.Elitism; i++ {
			next = append(next, order[i].clone())
		}
		for len(next) < cfg.PopSize {
			a := tournament(pop, cfg.TournamentK, rng)
			b := tournament(pop, cfg.TournamentK, rng)
			child := make([]bool, cfg.Genes)
			if rng.Float64() < cfg.CrossoverRate {
				for j := range child {
					if rng.Intn(2) == 0 {
						child[j] = a.Genes[j]
					} else {
						child[j] = b.Genes[j]
					}
				}
			} else {
				copy(child, a.Genes)
			}
			for j := range child {
				if rng.Float64() < cfg.MutationRate {
					child[j] = !child[j]
				}
			}
			next = append(next, Individual{Genes: child, Fitness: fit(child)})
		}
		pop = next
		if cand := bestOf(pop); cand.Fitness > best.Fitness {
			best = cand.clone()
			stall = 0
		} else {
			stall++
		}
		history = append(history, best.Fitness)
	}
	return Result{Best: best, Generations: gen, History: history}
}

// subsetFitness mimics the paper's rho*(1-n/N) shape: a deterministic,
// irregular reward per gene, discounted by subset size, so ties are rare
// and the search runs many generations.
func subsetFitness(genes []bool) float64 {
	v, k := 0.0, 0
	for i, g := range genes {
		if g {
			v += math.Sin(float64(i*i + 1))
			k++
		}
	}
	return v * (1 - float64(k)/float64(len(genes)+1))
}

func TestRunMatchesSequentialLoop(t *testing.T) {
	for _, cfg := range []Config{
		{Genes: 47, Seed: 2006},
		{Genes: 47, Seed: 1},
		{Genes: 20, Seed: 7, PopSize: 16},
		{Genes: 33, Seed: 99, Elitism: 5, CrossoverRate: 0.5},
		{Genes: 6, Seed: 3}, // tiny space: most children are repeats
	} {
		got, want := Run(cfg, subsetFitness), sequentialRun(cfg, subsetFitness)
		if got.Generations != want.Generations {
			t.Errorf("%+v: Generations = %d, want %d", cfg, got.Generations, want.Generations)
		}
		if !slices.Equal(got.Best.Genes, want.Best.Genes) ||
			math.Float64bits(got.Best.Fitness) != math.Float64bits(want.Best.Fitness) {
			t.Errorf("%+v: Best = %+v, want %+v", cfg, got.Best, want.Best)
		}
		if len(got.History) != len(want.History) {
			t.Fatalf("%+v: History has %d entries, want %d", cfg, len(got.History), len(want.History))
		}
		for i := range want.History {
			if math.Float64bits(got.History[i]) != math.Float64bits(want.History[i]) {
				t.Errorf("%+v: History[%d] = %v, want %v", cfg, i, got.History[i], want.History[i])
			}
		}
	}
}

// TestRunScoresEachGenomeOnce: the memo spans the whole run, so a
// counting fitness sees every distinct genome exactly once, and sees
// every genome the reference loop scored.
func TestRunScoresEachGenomeOnce(t *testing.T) {
	cfg := Config{Genes: 12, Seed: 5}
	var mu sync.Mutex
	calls := map[string]int{}
	Run(cfg, func(genes []bool) float64 {
		mu.Lock()
		calls[pack(genes)]++
		mu.Unlock()
		return subsetFitness(genes)
	})
	for k, n := range calls {
		if n != 1 {
			t.Errorf("genome %x scored %d times, want once", k, n)
		}
	}
	seen := map[string]bool{}
	total := 0
	sequentialRun(cfg, func(genes []bool) float64 {
		seen[pack(genes)] = true
		total++
		return subsetFitness(genes)
	})
	if len(calls) != len(seen) {
		t.Errorf("Run scored %d distinct genomes, the reference loop %d", len(calls), len(seen))
	}
	if total <= len(seen) {
		t.Errorf("reference loop made %d calls over %d genomes; the test needs repeats", total, len(seen))
	}
}

func TestRunPropagatesFitnessPanic(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Errorf("recovered %v, want the fitness panic \"boom\"", r)
		}
	}()
	Run(Config{Genes: 16, Seed: 1}, func(genes []bool) float64 {
		if genes[0] && genes[1] {
			panic("boom")
		}
		return 0
	})
	t.Error("Run returned despite a panicking fitness")
}
