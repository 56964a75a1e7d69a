// Package ga implements the genetic algorithm of Section V-B: a
// generational GA over fixed-length bitstrings with tournament selection,
// uniform crossover, per-gene mutation and elitism. The paper uses it to
// search for small subsets of program characteristics whose reduced
// workload space preserves the distance structure of the full space; the
// engine here is generic over any bitstring fitness function.
package ga

import (
	"context"
	"errors"
	"math/rand"

	"mica/internal/pool"
)

// Config holds the GA hyper-parameters. Zero values select the defaults
// documented on each field.
type Config struct {
	// Genes is the bitstring length (required, > 0).
	Genes int
	// PopSize is the population size (default 64).
	PopSize int
	// MaxGenerations bounds the run (default 200).
	MaxGenerations int
	// StallGenerations stops the run when the best fitness has not
	// improved for this many generations (default 30), implementing the
	// paper's "until no more improvement is observed" rule.
	StallGenerations int
	// MutationRate is the per-gene flip probability (default 1/Genes).
	MutationRate float64
	// CrossoverRate is the probability a child is produced by uniform
	// crossover rather than cloning (default 0.9).
	CrossoverRate float64
	// TournamentK is the tournament selection size (default 3).
	TournamentK int
	// Elitism is how many best individuals survive unchanged (default 2).
	Elitism int
	// Seed makes runs reproducible.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.PopSize == 0 {
		c.PopSize = 64
	}
	if c.MaxGenerations == 0 {
		c.MaxGenerations = 200
	}
	if c.StallGenerations == 0 {
		c.StallGenerations = 30
	}
	if c.MutationRate == 0 {
		c.MutationRate = 1 / float64(c.Genes)
	}
	if c.CrossoverRate == 0 {
		c.CrossoverRate = 0.9
	}
	if c.TournamentK == 0 {
		c.TournamentK = 3
	}
	if c.Elitism == 0 {
		c.Elitism = 2
	}
	if c.Elitism > c.PopSize {
		c.Elitism = c.PopSize
	}
	return c
}

// Individual is one candidate solution.
type Individual struct {
	Genes   []bool
	Fitness float64
}

func (ind Individual) clone() Individual {
	g := make([]bool, len(ind.Genes))
	copy(g, ind.Genes)
	return Individual{Genes: g, Fitness: ind.Fitness}
}

// CountSet returns the number of set genes.
func (ind Individual) CountSet() int {
	n := 0
	for _, g := range ind.Genes {
		if g {
			n++
		}
	}
	return n
}

// FitnessFunc scores a bitstring; higher is better. It must be pure —
// the same genes always score the same — and safe for concurrent calls:
// Run scores each distinct genome once and scores a generation's new
// genomes in parallel.
type FitnessFunc func(genes []bool) float64

// Result reports the outcome of a run.
type Result struct {
	Best        Individual
	Generations int
	// History records the best fitness at each generation.
	History []float64
}

// Run executes the GA and returns the best individual found. It panics if
// cfg.Genes <= 0, and re-panics in the caller's goroutine if fit panics.
//
// Fitness never draws from the random source, so Run breeds a whole
// generation before scoring it; the draw sequence, and so the result,
// is the same as scoring each child as it is bred.
func Run(cfg Config, fit FitnessFunc) Result {
	if cfg.Genes <= 0 {
		panic("ga: Config.Genes must be positive")
	}
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	memo := make(map[string]float64)

	pop := make([]Individual, cfg.PopSize)
	for i := range pop {
		genes := make([]bool, cfg.Genes)
		for j := range genes {
			genes[j] = rng.Intn(2) == 1
		}
		pop[i] = Individual{Genes: genes}
	}
	score(pop, memo, fit)

	best := bestOf(pop).clone()
	stall := 0
	var history []float64

	gen := 0
	for ; gen < cfg.MaxGenerations && stall < cfg.StallGenerations; gen++ {
		next := make([]Individual, 0, cfg.PopSize)

		// Elitism: copy the best individuals unchanged.
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
			next = append(next, Individual{Genes: child})
		}
		score(next[cfg.Elitism:], memo, fit)
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

// score sets the Fitness of every individual in pop. memo holds every
// genome the run has scored, keyed by its packed bitstring; only the
// distinct genomes it lacks reach fit, in parallel.
func score(pop []Individual, memo map[string]float64, fit FitnessFunc) {
	keys := make([]string, len(pop))
	var todo []int // index in pop of each unscored genome's first copy
	for i, ind := range pop {
		keys[i] = pack(ind.Genes)
		if _, seen := memo[keys[i]]; !seen {
			memo[keys[i]] = 0 // claimed; scored below
			todo = append(todo, i)
		}
	}
	err := pool.RunCtx(context.Background(), len(todo), 0, func(_ context.Context, _, t int) error {
		ind := &pop[todo[t]]
		ind.Fitness = fit(ind.Genes)
		return nil
	})
	// fit returns no error, so err can only carry a recovered panic:
	// raise it again in the caller's goroutine.
	var pe *pool.PanicError
	if errors.As(err, &pe) {
		panic(pe.Value)
	}
	for _, i := range todo {
		memo[keys[i]] = pop[i].Fitness
	}
	for i := range pop {
		pop[i].Fitness = memo[keys[i]]
	}
}

// pack encodes genes one bit each.
func pack(genes []bool) string {
	b := make([]byte, (len(genes)+7)/8)
	for j, g := range genes {
		if g {
			b[j/8] |= 1 << (j % 8)
		}
	}
	return string(b)
}

func bestOf(pop []Individual) Individual {
	best := pop[0]
	for _, ind := range pop[1:] {
		if ind.Fitness > best.Fitness {
			best = ind
		}
	}
	return best
}

func sortedByFitness(pop []Individual) []Individual {
	out := make([]Individual, len(pop))
	copy(out, pop)
	// Insertion sort: populations are small and this avoids pulling in
	// sort for a hot path that runs once per generation.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Fitness > out[j-1].Fitness; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func tournament(pop []Individual, k int, rng *rand.Rand) Individual {
	best := pop[rng.Intn(len(pop))]
	for i := 1; i < k; i++ {
		if c := pop[rng.Intn(len(pop))]; c.Fitness > best.Fitness {
			best = c
		}
	}
	return best
}
