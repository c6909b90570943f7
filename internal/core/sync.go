package core

import (
	"context"

	"gridsched/internal/etc"
	"gridsched/internal/rng"
	"gridsched/internal/schedule"
	"gridsched/internal/solver"
	"gridsched/internal/topology"
)

// Solve implements solver.Solver: it executes the synchronous cellular
// GA model of §3.1. Every generation, all offspring are produced
// against the current population and placed in an auxiliary
// population, which then replaces the current one at once. Offspring
// come from the same breeding step PA-CGA's workers run, through the
// same per-individual locks (uncontended here). It is single-threaded
// (Params.Threads is ignored) and serves as the async-vs-sync ablation
// and as the substrate for the cellular memetic baseline. The deadline
// and ctx are checked at generation granularity.
func (s SyncCGA) Solve(ctx context.Context, inst *etc.Instance, b solver.Budget) (*Result, error) {
	if b.IsZero() {
		return nil, errNoStop
	}
	p := s.Params.withDefaults()
	p.Threads = 1
	if err := p.validate(); err != nil {
		return nil, err
	}
	grid, err := topology.NewGrid(p.GridW, p.GridH)
	if err != nil {
		return nil, err
	}

	root := rng.New(p.Seed)
	initRNG := root.Split(0)
	pop := newPopulation(inst, grid.Size(), initRNG, !p.DisableMinMinSeed, p.SeedSchedule)

	// Auxiliary generation buffer: offspring and their fitness, laid
	// out as one arena so the install sweep copies between contiguous
	// planes.
	auxArena := schedule.NewArena(inst, grid.Size())
	aux := make([]*schedule.Schedule, grid.Size())
	auxFit := make([]float64, grid.Size())
	accepted := make([]bool, grid.Size())
	for i := range aux {
		aux[i] = auxArena.At(i)
	}

	eng := solver.NewEngine(ctx, b)
	eng.AddEvals(int64(pop.size()))
	if eng.Observing() {
		_, f := pop.best()
		eng.Observe(f)
	}
	br := newBreeder(inst, grid, pop, &p, root.Split(1), eng)
	var gens int64
	var conv, div []float64
	var divCount []int

	// install replaces the first n cells with their accepted offspring;
	// record counts the installed (possibly partial) generation and
	// samples the post-replacement population, so Generations,
	// Convergence and Diversity always describe what the population
	// actually holds — a partially-swept generation whose offspring were
	// installed but never counted would leave the records diverging
	// from the population.
	install := func(n int) {
		for c := 0; c < n; c++ {
			if accepted[c] {
				pop.sched(c).CopyFrom(aux[c])
				pop.fit[c] = auxFit[c]
			}
		}
	}
	record := func() {
		gens++
		if p.RecordConvergence {
			conv = append(conv, pop.meanFitnessRange(0, pop.size()))
		}
		if p.RecordDiversity {
			var d float64
			divCount, d = pop.blockDiversity(0, pop.size(), divCount)
			div = append(div, d)
		}
	}

loop:
	for {
		if eng.StopSweep(gens) {
			break
		}
		for cell := 0; cell < grid.Size(); cell++ {
			if eng.EvalsExhausted() {
				// Install the offspring bred so far in this generation,
				// then stop: a partially-swept synchronous generation
				// must not leave stale aux entries behind — and, once
				// installed, must be visible in the run records too.
				if cell > 0 {
					install(cell)
					record()
				}
				break loop
			}
			auxFit[cell] = br.breed(cell, aux[cell])
			accepted[cell] = auxFit[cell] < pop.fitness(cell)
		}
		// Synchronous replacement: the whole generation installs at once.
		install(grid.Size())
		record()
	}

	res := &Result{
		Evaluations:      eng.Evals(),
		LocalSearchMoves: br.lsMoves,
		Duration:         eng.Elapsed(),
		EffectiveBudget:  eng.EffectiveBudget(),
		Generations:      gens,
		PerThread:        []int64{gens},
		Convergence:      conv,
		Diversity:        div,
	}
	res.Best, res.BestFitness = pop.best()
	eng.Finish(res.BestFitness)
	return res, nil
}
