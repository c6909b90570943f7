package core

import (
	"context"

	"gridsched/internal/etc"
	"gridsched/internal/operators"
	"gridsched/internal/rng"
	"gridsched/internal/schedule"
	"gridsched/internal/solver"
	"gridsched/internal/topology"
)

// Solve implements solver.Solver: it executes the synchronous cellular
// GA model of §3.1. Every generation, all offspring are produced
// against the current population and placed in an auxiliary
// population, which then replaces the current one at once. It is
// single-threaded (Params.Threads and LockMode are ignored) and serves
// as the async-vs-sync ablation and as the substrate for the cellular
// memetic baseline. The deadline and ctx are checked at generation
// granularity.
func (s SyncCGA) Solve(ctx context.Context, inst *etc.Instance, b solver.Budget) (*Result, error) {
	if b.IsZero() {
		return nil, errNoStop
	}
	p := s.Params.withDefaults()
	p.Threads = 1
	p.LockMode = NoLock
	if err := p.validate(); err != nil {
		return nil, err
	}
	grid, err := topology.NewGrid(p.GridW, p.GridH)
	if err != nil {
		return nil, err
	}

	root := rng.New(p.Seed)
	initRNG := root.Split(0)
	pop := newPopulation(inst, grid.Size(), initRNG, !p.DisableMinMinSeed, p.SeedSchedule, NoLock, p.fitness)
	r := root.Split(1)

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
	p1 := schedule.New(inst)
	p2 := schedule.New(inst)
	neigh := make([]int, 0, p.Neighborhood.Size())
	cands := make([]operators.Candidate, 0, p.Neighborhood.Size())

	eng := solver.NewEngine(ctx, b)
	eng.AddEvals(int64(pop.size()))
	if eng.Observing() {
		_, f := pop.best()
		eng.Observe(f)
	}
	var lsMoves int64
	var gens int64
	var conv, div []float64
	var divCount []int
	var scratch schedule.Scratch

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
			neigh = p.Neighborhood.Neighbors(grid, cell, neigh)
			cands = cands[:0]
			for _, c := range neigh {
				cands = append(cands, operators.Candidate{Cell: c, Fitness: pop.fit[c]})
			}
			i1, i2 := p.Selector.Select(cands, r)
			p1.CopyFrom(pop.sched(cands[i1].Cell))
			if i2 == i1 {
				p2.CopyFrom(p1)
			} else {
				p2.CopyFrom(pop.sched(cands[i2].Cell))
			}
			if r.Bool(p.CrossProb) {
				p.Crossover.Cross(aux[cell], p1, p2, r)
			} else {
				aux[cell].CopyFrom(p1)
			}
			if r.Bool(p.MutProb) {
				p.Mutation.Mutate(aux[cell], r)
			}
			if p.LocalProb > 0 && r.Bool(p.LocalProb) {
				lsMoves += int64(p.Local.Apply(aux[cell], r))
			}
			auxFit[cell] = p.fitnessWith(aux[cell], &scratch)
			eng.AddEvals(1)
			eng.Observe(auxFit[cell])
			accepted[cell] = p.Replacement.Accepts(pop.fit[cell], auxFit[cell])
		}
		// Synchronous replacement: the whole generation installs at once.
		install(grid.Size())
		record()
	}

	res := &Result{
		Evaluations:      eng.Evals(),
		LocalSearchMoves: lsMoves,
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
