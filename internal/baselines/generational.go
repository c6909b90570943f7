package baselines

import (
	"context"
	"fmt"

	"gridsched/internal/etc"
	"gridsched/internal/heuristics"
	"gridsched/internal/operators"
	"gridsched/internal/rng"
	"gridsched/internal/schedule"
	"gridsched/internal/solver"
)

// GenerationalConfig parameterizes the panmictic generational GA — the
// "regular GA" that cellular GAs are claimed to outperform (§1, [1]).
// Everyone can mate with everyone; each generation fully replaces the
// population except for a small elite.
type GenerationalConfig struct {
	// PopSize is the population size (default 256 to match the cellular
	// population).
	PopSize int
	// Elite is how many best individuals survive unconditionally
	// (default 2).
	Elite int
	// TournamentK is the selection tournament size (default 2).
	TournamentK int
	// CrossProb and MutProb are the operator rates (defaults 0.9 / 0.2,
	// conventional generational settings).
	CrossProb, MutProb float64
	// Crossover and Mutation default to two-point and move.
	Crossover operators.Crossover
	Mutation  operators.Mutation
	// LSIters applies H2LL to each offspring when positive (0 default:
	// the plain GA the survey compares against has no local search).
	LSIters int
	// SeedMinMin seeds one Min-min individual.
	SeedMinMin bool
	// Seed drives all randomness.
	Seed uint64
	// RecordDiversity samples the population's mean per-task Simpson
	// diversity each generation (for the diversity study comparing
	// panmictic vs cellular populations).
	RecordDiversity bool
	// RecordConvergence samples the population mean makespan each
	// generation.
	RecordConvergence bool
}

func (c GenerationalConfig) withDefaults() GenerationalConfig {
	if c.PopSize == 0 {
		c.PopSize = 256
	}
	if c.Elite == 0 {
		c.Elite = 2
	}
	if c.TournamentK == 0 {
		c.TournamentK = 2
	}
	if c.CrossProb == 0 {
		c.CrossProb = 0.9
	}
	if c.MutProb == 0 {
		c.MutProb = 0.2
	}
	if c.Crossover == nil {
		c.Crossover = operators.TwoPoint{}
	}
	if c.Mutation == nil {
		c.Mutation = operators.Move{}
	}
	return c
}

// Solve implements solver.Solver: it runs the panmictic generational
// GA, checking the deadline and ctx at generation granularity.
func (s GenerationalSolver) Solve(ctx context.Context, inst *etc.Instance, b solver.Budget) (*solver.Result, error) {
	cfg := s.Config.withDefaults()
	if cfg.PopSize < 2 {
		return nil, fmt.Errorf("baselines: generational population %d too small", cfg.PopSize)
	}
	if cfg.Elite >= cfg.PopSize {
		return nil, fmt.Errorf("baselines: elite %d ≥ population %d", cfg.Elite, cfg.PopSize)
	}
	if b.IsZero() {
		return nil, fmt.Errorf("baselines: generational needs a stop condition")
	}

	eng := solver.NewEngine(ctx, b)
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

	next := make([]*schedule.Schedule, cfg.PopSize)
	nextFit := make([]float64, cfg.PopSize)
	for i := range next {
		next[i] = schedule.New(inst)
	}
	ls := operators.H2LL{Iterations: cfg.LSIters}

	var gens, lsMoves int64
	var conv, div []float64
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
	bestIdx := func() int {
		b := 0
		for i := 1; i < cfg.PopSize; i++ {
			if fit[i] < fit[b] {
				b = i
			}
		}
		return b
	}

loop:
	for {
		if eng.StopSweep(gens) {
			break
		}
		// Elitism: copy the Elite best individuals unchanged. A single
		// pass partial selection suffices for small Elite.
		copied := map[int]bool{}
		for e := 0; e < cfg.Elite; e++ {
			b := -1
			for i := 0; i < cfg.PopSize; i++ {
				if copied[i] {
					continue
				}
				if b < 0 || fit[i] < fit[b] {
					b = i
				}
			}
			copied[b] = true
			next[e].CopyFrom(pop[b])
			nextFit[e] = fit[b]
		}
		for slot := cfg.Elite; slot < cfg.PopSize; slot++ {
			if eng.EvalsExhausted() {
				// Abandon the partial generation; pop is still intact.
				break loop
			}
			a, b := tournament(), tournament()
			child := next[slot]
			if r.Bool(cfg.CrossProb) {
				cfg.Crossover.Cross(child, pop[a], pop[b], r)
			} else {
				child.CopyFrom(pop[a])
			}
			if r.Bool(cfg.MutProb) {
				cfg.Mutation.Mutate(child, r)
			}
			if cfg.LSIters > 0 {
				lsMoves += int64(ls.Apply(child, r))
			}
			nextFit[slot] = child.Makespan()
			eng.AddEvals(1)
			eng.Observe(nextFit[slot])
		}
		pop, next = next, pop
		fit, nextFit = nextFit, fit
		gens++
		if cfg.RecordConvergence {
			sum := 0.0
			for _, f := range fit {
				sum += f
			}
			conv = append(conv, sum/float64(cfg.PopSize))
		}
		if cfg.RecordDiversity {
			div = append(div, PopulationDiversity(pop))
		}
	}

	best := bestIdx()
	eng.Finish(fit[best])
	return &solver.Result{
		Best:             pop[best].Clone(),
		BestFitness:      fit[best],
		Evaluations:      eng.Evals(),
		LocalSearchMoves: lsMoves,
		Generations:      gens,
		PerThread:        []int64{gens},
		Duration:         eng.Elapsed(),
		EffectiveBudget:  eng.EffectiveBudget(),
		Convergence:      conv,
		Diversity:        div,
	}, nil
}

// PopulationDiversity computes the mean per-task Simpson diversity
// (1 − Σ p_m²) of an arbitrary schedule population — the same metric the
// core engine records, exposed for external populations.
func PopulationDiversity(pop []*schedule.Schedule) float64 {
	if len(pop) == 0 {
		return 0
	}
	tasks := len(pop[0].S)
	machines := len(pop[0].CT)
	counts := make([]int, tasks*machines)
	for _, s := range pop {
		for t, m := range s.S {
			if m >= 0 {
				counts[t*machines+m]++
			}
		}
	}
	inv := 1 / float64(len(pop))
	total := 0.0
	for t := 0; t < tasks; t++ {
		sumSq := 0.0
		for _, c := range counts[t*machines : (t+1)*machines] {
			f := float64(c) * inv
			sumSq += f * f
		}
		total += 1 - sumSq
	}
	return total / float64(tasks)
}
