// Package islands implements a distributed island-model cellular GA: the
// message-passing parallelization the paper's survey contrasts with its
// shared-memory design (Luque, Alba & Dorronsoro's parallel cellular GAs
// for clusters). Each island evolves a private cellular population with
// no locks at all; the only coupling is periodic migration of elite
// individuals over channels arranged in a directed ring.
//
// Compared with PA-CGA (internal/core), the island model trades the
// tight per-generation interaction of one large toroidal population for
// complete isolation plus rare, explicit communication — the same
// algorithm family running at the opposite end of the coupling spectrum,
// which makes it the natural ablation for the paper's shared-memory
// bet.
package islands

import (
	"context"
	"fmt"
	"sync"

	"gridsched/internal/core"
	"gridsched/internal/etc"
	"gridsched/internal/heuristics"
	"gridsched/internal/operators"
	"gridsched/internal/rng"
	"gridsched/internal/schedule"
	"gridsched/internal/solver"
	"gridsched/internal/topology"
)

// Config parameterizes the island model. Operator fields default to the
// paper's Table 1 choices so islands differ from PA-CGA only in
// structure.
type Config struct {
	// Islands is the number of independent populations (default 4).
	Islands int
	// GridW, GridH are the per-island mesh dimensions (default 8×8, so
	// 4 islands match the paper's 256-individual total).
	GridW, GridH int
	// MigrationEvery is the number of island generations between
	// migrations (default 10).
	MigrationEvery int64
	// Migrants is how many elite individuals are sent per migration
	// (default 1).
	Migrants int
	// Neighborhood, Selector, Crossover, Mutation, Local and the
	// probabilities mirror core.Params; nil/zero values take the Table 1
	// defaults. An offspring replaces its cell only if it is strictly
	// better, as in PA-CGA.
	Neighborhood topology.Neighborhood
	Selector     operators.Selector
	Crossover    operators.Crossover
	CrossProb    float64
	Mutation     operators.Mutation
	MutProb      float64
	Local        operators.LocalSearch
	LocalProb    float64
	// SeedMinMin seeds island 0's first individual with Min-min.
	SeedMinMin bool
	// Seed drives all randomness.
	Seed uint64
}

func (c Config) withDefaults() Config {
	def := core.DefaultParams()
	if c.Islands == 0 {
		c.Islands = 4
	}
	if c.GridW == 0 && c.GridH == 0 {
		c.GridW, c.GridH = 8, 8
	}
	if c.MigrationEvery == 0 {
		c.MigrationEvery = 10
	}
	if c.Migrants == 0 {
		c.Migrants = 1
	}
	if c.Selector == nil {
		c.Selector = def.Selector
	}
	if c.Crossover == nil {
		c.Crossover = def.Crossover
	}
	if c.Mutation == nil {
		c.Mutation = def.Mutation
	}
	if c.Local == nil {
		c.Local = def.Local
	}
	// The operator probabilities mirror core.Params (Table 1: all 1.0).
	// Leaving them at zero silently disabled crossover, mutation and
	// local search entirely: the island GA only shuffled copies of its
	// initial individuals around, and the "improvements" it still
	// reported were completion-time rounding drift accumulated by the
	// migrant rebuild path — the exact artifact the compensated
	// completion-time engine eliminates.
	if c.CrossProb == 0 {
		c.CrossProb = def.CrossProb
	}
	if c.MutProb == 0 {
		c.MutProb = def.MutProb
	}
	if c.LocalProb == 0 {
		c.LocalProb = def.LocalProb
	}
	return c
}

func (c Config) validate() error {
	if c.Islands <= 0 {
		return fmt.Errorf("islands: non-positive island count %d", c.Islands)
	}
	if c.GridW <= 0 || c.GridH <= 0 {
		return fmt.Errorf("islands: invalid island grid %dx%d", c.GridW, c.GridH)
	}
	if c.Migrants < 0 || c.Migrants > c.GridW*c.GridH/2 {
		return fmt.Errorf("islands: %d migrants out of range for a %d-cell island", c.Migrants, c.GridW*c.GridH)
	}
	if c.MigrationEvery < 0 {
		return fmt.Errorf("islands: negative migration interval")
	}
	for _, p := range []float64{c.CrossProb, c.MutProb, c.LocalProb} {
		if p < 0 || p > 1 {
			return fmt.Errorf("islands: probability %v outside [0,1]", p)
		}
	}
	return nil
}

// migrant is one individual in flight between islands.
type migrant struct {
	assign  []int
	fitness float64
}

// island is one private cellular population plus its ring channels.
type island struct {
	id     int
	grid   topology.Grid
	pop    []*schedule.Schedule
	fit    []float64
	r      *rng.Rand
	inbox  <-chan migrant
	outbox chan<- migrant
	cfg    *Config
	eng    *solver.Engine

	child   *schedule.Schedule
	neigh   []int
	cands   []operators.Candidate
	gens    int64
	lsMoves int64
}

// Solve implements solver.Solver: it executes the island model and
// reports the shared result shape (PerThread holds per-island
// generations). MaxGenerations bounds each island; MaxEvaluations is
// global. Each island checks the deadline and ctx at generation
// granularity.
func (s Solver) Solve(ctx context.Context, inst *etc.Instance, b solver.Budget) (*solver.Result, error) {
	if b.IsZero() {
		return nil, fmt.Errorf("islands: no stop condition set")
	}
	cfg := s.Config.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	grid, err := topology.NewGrid(cfg.GridW, cfg.GridH)
	if err != nil {
		return nil, err
	}

	root := rng.New(cfg.Seed)
	eng := solver.NewEngine(ctx, b)

	// Ring channels: island i sends to (i+1) mod N. Buffers are sized
	// so a sender never blocks even if the receiver has already
	// terminated (sends are also non-blocking as a second guard).
	chans := make([]chan migrant, cfg.Islands)
	for i := range chans {
		chans[i] = make(chan migrant, cfg.Migrants*4+4)
	}

	islands := make([]*island, cfg.Islands)
	for i := range islands {
		isl := &island{
			id:     i,
			grid:   grid,
			r:      root.Split(uint64(i) + 1),
			inbox:  chans[i],
			outbox: chans[(i+1)%cfg.Islands],
			cfg:    &cfg,
			eng:    eng,
			child:  schedule.New(inst),
			neigh:  make([]int, 0, cfg.Neighborhood.Size()),
			cands:  make([]operators.Candidate, 0, cfg.Neighborhood.Size()),
		}
		isl.pop = make([]*schedule.Schedule, grid.Size())
		isl.fit = make([]float64, grid.Size())
		initRNG := isl.r.Split(0)
		for c := range isl.pop {
			if i == 0 && c == 0 && cfg.SeedMinMin {
				isl.pop[c] = heuristics.MinMin(inst)
			} else {
				isl.pop[c] = schedule.NewRandom(inst, initRNG)
			}
			isl.fit[c] = isl.pop[c].Makespan()
		}
		islands[i] = isl
	}
	eng.AddEvals(int64(cfg.Islands * grid.Size()))
	if eng.Observing() {
		// Seed the convergence trace with the best initial individual
		// across all islands (the populations are still private to this
		// goroutine — the island workers have not started).
		init := islands[0].fit[0]
		for _, isl := range islands {
			for _, f := range isl.fit {
				if f < init {
					init = f
				}
			}
		}
		eng.Observe(init)
	}

	var wg sync.WaitGroup
	for _, isl := range islands {
		wg.Add(1)
		go func(isl *island) {
			defer wg.Done()
			isl.evolve()
		}(isl)
	}
	wg.Wait()

	res := &solver.Result{
		Evaluations:     eng.Evals(),
		Duration:        eng.Elapsed(),
		EffectiveBudget: eng.EffectiveBudget(),
		PerThread:       make([]int64, cfg.Islands),
	}
	bestFit := islands[0].fit[0]
	var best *schedule.Schedule
	for i, isl := range islands {
		res.PerThread[i] = isl.gens
		res.Generations += isl.gens
		res.LocalSearchMoves += isl.lsMoves
		for c, f := range isl.fit {
			if best == nil || f < bestFit {
				best, bestFit = isl.pop[c], f
			}
		}
	}
	res.Best = best.Clone()
	res.BestFitness = bestFit
	eng.Finish(bestFit)
	return res, nil
}

// evolve runs the island until a stop condition fires.
func (isl *island) evolve() {
	cfg := isl.cfg
	for {
		if isl.eng.StopSweep(isl.gens) {
			return
		}
		isl.receiveMigrants()
		for cell := 0; cell < isl.grid.Size(); cell++ {
			if isl.eng.EvalsExhausted() {
				return
			}
			isl.evolveCell(cell)
		}
		isl.gens++
		if cfg.MigrationEvery > 0 && isl.gens%cfg.MigrationEvery == 0 {
			isl.sendMigrants()
		}
	}
}

// evolveCell is the lock-free version of the PA-CGA breeding loop: the
// island owns its population outright, so the offspring is crossed
// straight from the parents' cells, with no snapshot copies.
func (isl *island) evolveCell(cell int) {
	cfg := isl.cfg
	isl.neigh = cfg.Neighborhood.Neighbors(isl.grid, cell, isl.neigh)
	isl.cands = isl.cands[:0]
	for _, c := range isl.neigh {
		isl.cands = append(isl.cands, operators.Candidate{Cell: c, Fitness: isl.fit[c]})
	}
	i1, i2 := cfg.Selector.Select(isl.cands, isl.r)
	p1, p2 := isl.pop[isl.cands[i1].Cell], isl.pop[isl.cands[i2].Cell]
	if isl.r.Bool(cfg.CrossProb) {
		cfg.Crossover.Cross(isl.child, p1, p2, isl.r)
	} else {
		isl.child.CopyFrom(p1)
	}
	if isl.r.Bool(cfg.MutProb) {
		cfg.Mutation.Mutate(isl.child, isl.r)
	}
	if cfg.LocalProb > 0 && isl.r.Bool(cfg.LocalProb) {
		isl.lsMoves += int64(cfg.Local.Apply(isl.child, isl.r))
	}
	f := isl.child.Makespan()
	isl.eng.AddEvals(1)
	isl.eng.Observe(f)
	if f < isl.fit[cell] {
		isl.pop[cell].CopyFrom(isl.child)
		isl.fit[cell] = f
	}
}

// sendMigrants emits copies of the island's best individuals into the
// ring. Sends are non-blocking: if the neighbor's buffer is full (or the
// neighbor terminated long ago), the migrant is dropped — migration is
// best-effort by design.
func (isl *island) sendMigrants() {
	for k := 0; k < isl.cfg.Migrants; k++ {
		best := 0
		for c := 1; c < len(isl.fit); c++ {
			if isl.fit[c] < isl.fit[best] {
				best = c
			}
		}
		m := migrant{assign: append([]int(nil), isl.pop[best].S...), fitness: isl.fit[best]}
		select {
		case isl.outbox <- m:
		default:
		}
	}
}

// receiveMigrants drains the inbox; each migrant replaces the island's
// worst individual if strictly better.
func (isl *island) receiveMigrants() {
	for {
		select {
		case m := <-isl.inbox:
			worst := 0
			for c := 1; c < len(isl.fit); c++ {
				if isl.fit[c] > isl.fit[worst] {
					worst = c
				}
			}
			if m.fitness < isl.fit[worst] {
				isl.pop[worst].SetRange(0, m.assign)
				isl.fit[worst] = m.fitness
			}
		default:
			return
		}
	}
}
