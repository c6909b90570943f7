// Package baselines reimplements the two literature comparators of
// Table 2, since their published numbers cannot be copied onto our
// synthetic instances:
//
//   - the Struggle GA of Xhafa (2006): a steady-state, panmictic GA whose
//     offspring replaces the most *similar* individual in the population
//     (if better), preserving diversity without spatial structure;
//   - cMA+LTH of Xhafa, Alba, Dorronsoro & Duran (2008): a synchronous
//     cellular memetic algorithm whose offspring pass through a short
//     local tabu hook.
//
// Both are tuned lightly and honestly: the goal is a faithful algorithmic
// shape, so Table 2's "who wins where" comparisons carry over.
package baselines

import (
	"context"
	"fmt"

	"gridsched/internal/core"
	"gridsched/internal/etc"
	"gridsched/internal/heuristics"
	"gridsched/internal/operators"
	"gridsched/internal/rng"
	"gridsched/internal/schedule"
	"gridsched/internal/solver"
	"gridsched/internal/tabu"
	"gridsched/internal/topology"
)

// StruggleConfig parameterizes the Struggle GA.
type StruggleConfig struct {
	// PopSize is the panmictic population size (default 64, the scale
	// used in Xhafa's study).
	PopSize int
	// TournamentK is the selection tournament size (default 3).
	TournamentK int
	// CrossProb, MutProb are the operator rates (defaults 0.8 / 0.4 —
	// steady-state GAs run lower mutation pressure than the cellular
	// p_mut=1 design).
	CrossProb, MutProb float64
	// Crossover and Mutation default to two-point and move.
	Crossover operators.Crossover
	Mutation  operators.Mutation
	// SeedMinMin places one Min-min individual in the initial
	// population, mirroring the PA-CGA setup so comparisons are fair.
	SeedMinMin bool
	// Seed drives all randomness.
	Seed uint64
}

func (c StruggleConfig) withDefaults() StruggleConfig {
	if c.PopSize == 0 {
		c.PopSize = 64
	}
	if c.TournamentK == 0 {
		c.TournamentK = 3
	}
	if c.CrossProb == 0 {
		c.CrossProb = 0.8
	}
	if c.MutProb == 0 {
		c.MutProb = 0.4
	}
	if c.Crossover == nil {
		c.Crossover = operators.TwoPoint{}
	}
	if c.Mutation == nil {
		c.Mutation = operators.Move{}
	}
	return c
}

// Solve implements solver.Solver: it runs the Struggle GA and returns
// the shared result shape. The deadline and ctx are polled at the
// engine's coarse steady-state granularity. MaxGenerations is not
// meaningful for a steady-state GA and is ignored, so at least one of
// MaxDuration and MaxEvaluations must be set.
func (s StruggleSolver) Solve(ctx context.Context, inst *etc.Instance, b solver.Budget) (*solver.Result, error) {
	cfg := s.Config.withDefaults()
	if cfg.PopSize < 2 {
		return nil, fmt.Errorf("baselines: struggle population %d too small", cfg.PopSize)
	}
	if b.MaxEvaluations <= 0 && b.MaxDuration <= 0 {
		return nil, fmt.Errorf("baselines: struggle needs a stop condition")
	}

	eng := solver.NewEngine(ctx, solver.Budget{
		MaxDuration:    b.MaxDuration,
		MaxEvaluations: b.MaxEvaluations,
	})
	r := rng.New(cfg.Seed)
	pop := make([]*schedule.Schedule, cfg.PopSize)
	fit := make([]float64, cfg.PopSize)
	for i := range pop {
		if i == 0 && cfg.SeedMinMin {
			pop[i] = heuristics.MinMin(inst)
		} else {
			pop[i] = schedule.NewRandom(inst, r)
		}
		fit[i] = pop[i].Makespan()
	}
	eng.AddEvals(int64(cfg.PopSize))
	observeInitialBest(eng, fit)

	child := schedule.New(inst)
	tournament := func() int {
		best := r.Intn(cfg.PopSize)
		for k := 1; k < cfg.TournamentK; k++ {
			c := r.Intn(cfg.PopSize)
			if fit[c] < fit[best] {
				best = c
			}
		}
		return best
	}

	// Steady state: one offspring per step; the shared engine checks
	// the evaluation bound every step and polls the deadline coarsely.
	var steps int64
	for step := int64(0); ; step++ {
		if eng.StopStep(step) {
			break
		}
		a, b := tournament(), tournament()
		if r.Bool(cfg.CrossProb) {
			cfg.Crossover.Cross(child, pop[a], pop[b], r)
		} else {
			child.CopyFrom(pop[a])
		}
		if r.Bool(cfg.MutProb) {
			cfg.Mutation.Mutate(child, r)
		}
		cf := child.Makespan()
		eng.AddEvals(1)
		eng.Observe(cf)
		steps++

		// Struggle replacement: the offspring competes with the most
		// similar individual (minimum Hamming distance) and replaces it
		// only if better.
		closest, closestDist := 0, child.HammingDistance(pop[0])
		for i := 1; i < cfg.PopSize; i++ {
			if d := child.HammingDistance(pop[i]); d < closestDist {
				closest, closestDist = i, d
			}
		}
		if cf < fit[closest] {
			pop[closest].CopyFrom(child)
			fit[closest] = cf
		}
	}

	bestIdx := 0
	for i := 1; i < cfg.PopSize; i++ {
		if fit[i] < fit[bestIdx] {
			bestIdx = i
		}
	}
	eng.Finish(fit[bestIdx])
	return &solver.Result{
		Best:            pop[bestIdx].Clone(),
		BestFitness:     fit[bestIdx],
		Evaluations:     eng.Evals(),
		Generations:     steps,
		PerThread:       []int64{steps},
		Duration:        eng.Elapsed(),
		EffectiveBudget: eng.EffectiveBudget(),
	}, nil
}

// observeInitialBest seeds an attached observer's convergence trace
// with the best fitness of a freshly evaluated population, so the first
// steady-state improvement is measured against the starting point. The
// scan is gated on observation: an unobserved run pays nothing.
func observeInitialBest(eng *solver.Engine, fit []float64) {
	if !eng.Observing() || len(fit) == 0 {
		return
	}
	best := fit[0]
	for _, f := range fit[1:] {
		if f < best {
			best = f
		}
	}
	eng.Observe(best)
}

// CMALTHConfig parameterizes the cellular memetic baseline.
type CMALTHConfig struct {
	// GridW, GridH give the cellular population (default 16×16 to match
	// the paper's population size).
	GridW, GridH int
	// TabuIters bounds the local tabu hook per offspring (default 20).
	TabuIters int
	// SeedMinMin seeds one Min-min individual (the cMA study does).
	SeedMinMin bool
	// Seed drives all randomness.
	Seed uint64
}

// Solve implements solver.Solver: it runs the cellular memetic
// algorithm with local tabu hook, the synchronous cellular engine
// configured per the published cMA study — binary tournament selection,
// p_c = 0.8, p_m = 0.4 — with a short, narrow tabu hop in place of
// H2LL. (Configuring it with the PA-CGA's own p=1.0 operator rates and
// a wide tabu makes the baseline stronger than the published
// algorithm; these defaults keep the comparison faithful.) The whole
// budget, generation bound included, goes to the synchronous engine.
func (s CMALTHSolver) Solve(ctx context.Context, inst *etc.Instance, b solver.Budget) (*solver.Result, error) {
	cfg := s.Config
	p := core.DefaultParams()
	if cfg.GridW > 0 {
		p.GridW = cfg.GridW
	}
	if cfg.GridH > 0 {
		p.GridH = cfg.GridH
	}
	iters := cfg.TabuIters
	if iters <= 0 {
		iters = 10
	}
	p.Local = tabu.Search{MaxIters: iters, CandidateTasks: 4}
	p.Neighborhood = topology.L5
	p.Selector = operators.BinaryTournament{}
	p.CrossProb = 0.8
	p.MutProb = 0.4
	p.Seed = cfg.Seed
	p.DisableMinMinSeed = !cfg.SeedMinMin
	return core.SyncCGA{Params: p}.Solve(ctx, inst, b)
}
