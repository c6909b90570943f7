package core

import (
	"context"
	"sync"

	"gridsched/internal/etc"
	"gridsched/internal/operators"
	"gridsched/internal/rng"
	"gridsched/internal/schedule"
	"gridsched/internal/solver"
	"gridsched/internal/topology"
)

// Result reports the outcome of a PA-CGA (or synchronous CGA) run. It
// is the solver layer's common result shape: the Convergence entry g
// averages every block's mean at its own generation g, weighted by
// block size (falling back to a block's final value once that worker
// has stopped), and Diversity is sampled over the whole population by
// the first worker (per-block diversity would under-report: blocks
// deliberately niche into different search-space regions).
type Result = solver.Result

// Solve implements solver.Solver: it executes PA-CGA (Algorithms 2–3)
// on the instance. It spawns Params.Threads worker goroutines, each
// evolving its contiguous population block asynchronously until the
// first of the budget's bounds or ctx's cancellation fires; the
// deadline and the context are checked once per block sweep.
func (s PACGA) Solve(ctx context.Context, inst *etc.Instance, b solver.Budget) (*Result, error) {
	if b.IsZero() {
		return nil, errNoStop
	}
	p := s.Params.withDefaults()
	if err := p.validate(); err != nil {
		return nil, err
	}
	grid, err := topology.NewGrid(p.GridW, p.GridH)
	if err != nil {
		return nil, err
	}
	blocks, err := topology.Partition(grid.Size(), p.Threads)
	if err != nil {
		return nil, err
	}

	root := rng.New(p.Seed)
	initRNG := root.Split(0)
	pop := newPopulation(inst, grid.Size(), initRNG, !p.DisableMinMinSeed, p.SeedSchedule)

	eng := solver.NewEngine(ctx, b)
	eng.AddEvals(int64(pop.size())) // initial_evaluation of Algorithm 2
	if eng.Observing() {
		// Seed the convergence trace with the initial population's best,
		// so the first breeding-step improvement is measured against it.
		_, f := pop.best()
		eng.Observe(f)
	}

	workers := make([]*worker, p.Threads)
	for i := range workers {
		w := &worker{
			breeder: newBreeder(inst, grid, pop, &p, root.Split(uint64(i)+1), eng),
			id:      i,
			block:   blocks[i],
			child:   schedule.New(inst),
		}
		w.r.Uint64() // burn one draw: the recorded trajectories (TestPACGAGoldenFingerprint) start after it
		workers[i] = w
	}

	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.evolve()
		}(w)
	}
	wg.Wait()

	res := &Result{
		Evaluations:     eng.Evals(),
		Duration:        eng.Elapsed(),
		EffectiveBudget: eng.EffectiveBudget(),
		PerThread:       make([]int64, len(workers)),
	}
	for i, w := range workers {
		res.PerThread[i] = w.gens
		res.Generations += w.gens
		res.LocalSearchMoves += w.lsMoves
	}
	res.Best, res.BestFitness = pop.best()
	eng.Finish(res.BestFitness)
	if p.RecordConvergence {
		res.Convergence = aggregateSeries(workers, blocks, func(w *worker) []float64 { return w.conv })
	}
	if p.RecordDiversity {
		res.Diversity = append([]float64(nil), workers[0].div...)
	}
	return res, nil
}

// maxNeighborhood is the size of the largest topology.Neighborhood (C9
// and L9). A larger one would still work: its slices would spill to the
// heap.
const maxNeighborhood = 9

// breeder is one breeding loop's state: the shared grid and population
// it reads, its own RNG stream and its reusable workspaces. PA-CGA's
// workers and SyncCGA breed through the same breed method, so the two
// models differ only in where the offspring goes.
type breeder struct {
	grid   topology.Grid
	pop    *population
	params *Params
	// r is held by value, inside the breeder's own allocation: two
	// workers' separately allocated 32-byte RNG states can share a
	// cache line, and every draw writes the state. The neighbourhood
	// and candidate buffers are arrays for the same reason: slices
	// made per breeder landed back to back in shared lines.
	r   rng.Rand
	eng *solver.Engine

	p2    *schedule.Schedule
	neigh [maxNeighborhood]int
	cands [maxNeighborhood]operators.Candidate
	// lsMoves counts this breeder's improving H2LL moves; Solve sums
	// them after the join.
	lsMoves int64
}

func newBreeder(inst *etc.Instance, grid topology.Grid, pop *population, p *Params, r *rng.Rand, eng *solver.Engine) breeder {
	return breeder{
		grid:   grid,
		pop:    pop,
		params: p,
		r:      *r,
		eng:    eng,
		p2:     schedule.New(inst),
	}
}

// breed produces cell's offspring into child (Algorithm 3 lines 3–8:
// select, recombine, mutate, local search, evaluate), counts the
// evaluation and returns the offspring's fitness. It reads the
// population only through its locked accessors.
func (b *breeder) breed(cell int, child *schedule.Schedule) float64 {
	p := b.params

	// get_neighborhood: cells whose individuals may mate with this one.
	// The neighborhood may cross block boundaries; those reads are what
	// the per-individual locks protect.
	neigh := p.Neighborhood.Neighbors(b.grid, cell, b.neigh[:0])

	// select: fitness reads under read locks, then the chosen parents
	// are snapshotted (copied out) so crossover never touches shared
	// memory. Parent 1 is copied straight into child, which crossover
	// then recombines in place; a parent selected twice is crossed with
	// itself.
	cands := b.cands[:0]
	for _, c := range neigh {
		cands = append(cands, operators.Candidate{Cell: c, Fitness: b.pop.fitness(c)})
	}
	i1, i2 := p.Selector.Select(cands, &b.r)
	b.pop.snapshotInto(cands[i1].Cell, child)
	p2 := child
	if i2 != i1 {
		b.pop.snapshotInto(cands[i2].Cell, b.p2)
		p2 = b.p2
	}

	// recombine with probability p_comb, otherwise the offspring stays
	// a copy of the first parent.
	if b.r.Bool(p.CrossProb) {
		p.Crossover.Cross(child, child, p2, &b.r)
	}

	// mutate with probability p_mut.
	if b.r.Bool(p.MutProb) {
		p.Mutation.Mutate(child, &b.r)
	}

	// local search (H2LL) with probability p_ser.
	if p.LocalProb > 0 && b.r.Bool(p.LocalProb) {
		b.lsMoves += int64(p.Local.Apply(child, &b.r))
	}

	// evaluate: the fitness is the makespan, a scan of the maintained
	// completion times.
	fit := child.Makespan()
	b.eng.AddEvals(1)
	b.eng.Observe(fit)
	return fit
}

// worker owns one population block and breeds its cells in place; it
// implements Algorithm 3.
type worker struct {
	breeder
	id    int
	block topology.Block
	child *schedule.Schedule

	gens     int64
	conv     []float64
	div      []float64
	divCount []int
}

// evolve runs block sweeps until a stop condition fires. Each sweep
// visits the block's cells in ascending order (Table 1: fixed line
// sweep per block). Matching the paper, the wall-clock condition (and
// context cancellation) is checked once per sweep (§3.2 explicitly
// accepts the overshoot); the evaluation budget is checked per breeding
// step so tests can rely on tight budgets.
func (w *worker) evolve() {
	p := w.params
	for {
		if w.eng.StopSweep(w.gens) {
			return
		}
		for cell := w.block.Start; cell < w.block.End; cell++ {
			if w.eng.EvalsExhausted() {
				return
			}
			w.evolveCell(cell)
		}
		w.gens++
		if p.RecordConvergence {
			w.conv = append(w.conv, w.pop.meanFitnessRange(w.block.Start, w.block.End))
		}
		// Diversity must be measured over the whole population: blocks
		// niche into different regions (that is the point of the
		// partition), so per-block diversity would under-report. Worker
		// 0 samples the global population at its own generation
		// boundaries, reading other blocks under their read locks.
		if p.RecordDiversity && w.id == 0 {
			var d float64
			w.divCount, d = w.pop.blockDiversity(0, w.pop.size(), w.divCount)
			w.div = append(w.div, d)
		}
	}
}

// evolveCell performs one breeding loop iteration (Algorithm 3 lines
// 3–9) on the given cell: breed an offspring, then install it into the
// cell under the write lock if it is strictly better.
func (w *worker) evolveCell(cell int) {
	w.pop.replaceIf(cell, w.child, w.breed(cell, w.child))
}

// aggregateSeries merges per-worker generation series into a
// population-wide mean per generation index. Blocks weigh by their size;
// a worker that stopped before generation g contributes its final value,
// so the series stays a population mean rather than drifting toward the
// surviving blocks.
func aggregateSeries(workers []*worker, blocks []topology.Block, get func(*worker) []float64) []float64 {
	maxLen := 0
	for _, w := range workers {
		if n := len(get(w)); n > maxLen {
			maxLen = n
		}
	}
	if maxLen == 0 {
		return nil
	}
	out := make([]float64, maxLen)
	total := 0
	for _, b := range blocks {
		total += b.Len()
	}
	for g := 0; g < maxLen; g++ {
		sum := 0.0
		for i, w := range workers {
			series := get(w)
			var v float64
			switch {
			case len(series) == 0:
				continue
			case g < len(series):
				v = series[g]
			default:
				v = series[len(series)-1]
			}
			sum += v * float64(blocks[i].Len())
		}
		out[g] = sum / float64(total)
	}
	return out
}
