package core

import (
	"sync"

	"gridsched/internal/etc"
	"gridsched/internal/heuristics"
	"gridsched/internal/rng"
	"gridsched/internal/schedule"
)

// population is the shared 2-D population storage, laid out as a
// structure of arrays: the cells' genomes and completion times live in
// one schedule.Arena (contiguous assignment and CT planes), the cached
// fitnesses in one contiguous lane, and the per-cell read-write locks
// in their own slice. Generation-scale sweeps (fitness scans, diversity
// measures, block means) therefore stream sequential memory instead of
// chasing one heap allocation per cell. Each individual has one lock,
// the paper's POSIX rwlock (§3.2): readers share a cell, replacement
// takes it exclusively.
type population struct {
	arena *schedule.Arena
	// fit caches each cell's fitness; guarded by the same lock as the
	// cell's schedule.
	fit []float64
	mus []sync.RWMutex
}

// newPopulation initializes size individuals on inst: all random except,
// unless disabled, cell 0 which receives the Min-min schedule (Table 1
// seeds exactly one individual with Min-min), and — when a warm-start
// schedule is supplied (Params.SeedSchedule) — the last cell, which
// receives a copy of it. This covers both setup_pop and
// initial_evaluation of Algorithm 2: the random cells are filled in
// place by Schedule.Randomize in ascending cell order (the exact RNG
// consumption of the historical per-cell NewRandom loop), and each
// cell's fitness is its makespan.
func newPopulation(inst *etc.Instance, size int, r *rng.Rand, seedMinMin bool, warm *schedule.Schedule) *population {
	if warm != nil && warm.Inst != inst {
		warm = nil // foreign schedule: ignore rather than corrupt the population
	}
	p := &population{
		arena: schedule.NewArena(inst, size),
		fit:   make([]float64, size),
		mus:   make([]sync.RWMutex, size),
	}
	for i := 0; i < size; i++ {
		s := p.arena.At(i)
		switch {
		case i == size-1 && warm != nil:
			s.CopyFrom(warm)
		case i == 0 && seedMinMin:
			s.CopyFrom(heuristics.MinMin(inst))
		default:
			s.Randomize(r)
		}
	}
	for i := 0; i < size; i++ {
		p.fit[i] = p.arena.At(i).Makespan()
	}
	return p
}

func (p *population) size() int { return p.arena.Len() }

// sched returns cell i's schedule (an arena view; the pointer is stable
// for the population's lifetime). Access is subject to the same locking
// protocol as fit.
func (p *population) sched(i int) *schedule.Schedule { return p.arena.At(i) }

// fitness returns cell i's cached makespan under a read lock. This is
// the non-atomic read the paper protects during selection.
func (p *population) fitness(i int) float64 {
	p.mus[i].RLock()
	f := p.fit[i]
	p.mus[i].RUnlock()
	return f
}

// snapshotInto copies cell i's genome and completion times into dst under
// a read lock, returning the fitness consistent with the copy. This is
// the protected parent read of the recombination step.
func (p *population) snapshotInto(i int, dst *schedule.Schedule) float64 {
	p.mus[i].RLock()
	dst.CopyFrom(p.arena.At(i))
	f := p.fit[i]
	p.mus[i].RUnlock()
	return f
}

// replaceIf installs cand (with fitness candFit) into cell i under a
// write lock if it is strictly better than the cell's current fitness
// (Table 1: replace if better). The comparison re-reads the current
// fitness inside the critical section, so a concurrent improvement
// cannot be stomped by a stale offspring.
func (p *population) replaceIf(i int, cand *schedule.Schedule, candFit float64) {
	p.mus[i].Lock()
	if candFit < p.fit[i] {
		p.arena.At(i).CopyFrom(cand)
		p.fit[i] = candFit
	}
	p.mus[i].Unlock()
}

// meanFitnessRange averages the fitness of cells [start, end) under read
// locks; used by the convergence recorder (Fig. 6). The fitness lane is
// contiguous, so the sweep streams one cache line per eight cells.
func (p *population) meanFitnessRange(start, end int) float64 {
	sum := 0.0
	for i := start; i < end; i++ {
		sum += p.fitness(i)
	}
	return sum / float64(end-start)
}

// blockDiversity measures the genotypic diversity of cells [start, end)
// as the mean over tasks of the Simpson index 1 − Σ_m p_m², where p_m is
// the fraction of the block assigning the task to machine m. It is 0
// when all individuals are identical and approaches 1 − 1/machines for a
// uniformly random block. counts is reusable scratch of len ≥
// tasks×machines (it is grown when too small); each cell is locked once.
// The cells' assignment rows are consecutive segments of one plane, so
// the count pass streams the block sequentially.
func (p *population) blockDiversity(start, end int, counts []int) ([]int, float64) {
	n := end - start
	if n <= 0 {
		return counts, 0
	}
	inst := p.arena.Inst()
	tasks, machines := inst.T, inst.M
	if cap(counts) < tasks*machines {
		counts = make([]int, tasks*machines)
	}
	counts = counts[:tasks*machines]
	for i := range counts {
		counts[i] = 0
	}
	for i := start; i < end; i++ {
		p.mus[i].RLock()
		for t, m := range p.arena.At(i).S {
			if m >= 0 {
				counts[t*machines+m]++
			}
		}
		p.mus[i].RUnlock()
	}
	total := 0.0
	inv := 1 / float64(n)
	for t := 0; t < tasks; t++ {
		sumSq := 0.0
		for _, c := range counts[t*machines : (t+1)*machines] {
			f := float64(c) * inv
			sumSq += f * f
		}
		total += 1 - sumSq
	}
	return counts, total / float64(tasks)
}

// best scans the population and returns a clone of the best individual
// and its fitness. Called once after the workers join.
func (p *population) best() (*schedule.Schedule, float64) {
	bestIdx, bestFit := 0, p.fitness(0)
	for i := 1; i < p.size(); i++ {
		f := p.fitness(i)
		if f < bestFit {
			bestIdx, bestFit = i, f
		}
	}
	p.mus[bestIdx].RLock()
	clone := p.arena.At(bestIdx).Clone()
	fit := p.fit[bestIdx]
	p.mus[bestIdx].RUnlock()
	return clone, fit
}
