package core

import (
	"errors"

	"gridsched/internal/etc"
	"gridsched/internal/schedule"
	"gridsched/internal/solver"
)

// errNoStop rejects an empty budget: with no bound set a run would
// never stop.
var errNoStop = errors.New("core: no stop condition set (need MaxDuration, MaxGenerations or MaxEvaluations)")

// PACGA is the parallel asynchronous cellular GA behind the unified
// solver interface. Params carries the configuration; the Budget passed
// to Solve carries the stop conditions.
type PACGA struct {
	Params Params
}

// Name implements solver.Solver.
func (s PACGA) Name() string { return "pa-cga" }

// Describe implements solver.Solver.
func (s PACGA) Describe() string {
	return "parallel asynchronous cellular GA (the paper's algorithm, Table 1 defaults)"
}

// WithSeed implements solver.Seeder.
func (s PACGA) WithSeed(seed uint64) solver.Solver {
	s.Params.Seed = seed
	return s
}

// WithStart implements solver.Restarter: the returned copy injects the
// schedule as one individual of its initial population (the warm-start
// counterpart of the Min-min seed), so portfolio restarts resume from
// the shared incumbent instead of rediscovering it.
func (s PACGA) WithStart(start *schedule.Schedule) solver.Solver {
	s.Params.SeedSchedule = start
	return s
}

// InitEvals implements solver.Initializer: every run evaluates the
// full initial population before breeding (Algorithm 2's
// initial_evaluation).
func (s PACGA) InitEvals(*etc.Instance) int64 {
	p := s.Params.withDefaults()
	return int64(p.GridW) * int64(p.GridH)
}

// Reproducible implements solver.Reproducible: the asynchronous engine
// is bit-reproducible only single-threaded — at >1 thread the fitness
// values read across block boundaries depend on worker interleaving.
// It reads the thread count Solve runs with, so Threads: 0 (the
// default, 3 workers) is not reproducible.
func (s PACGA) Reproducible() bool { return s.Params.withDefaults().Threads <= 1 }

// SyncCGA is the synchronous cellular GA (the async-vs-sync ablation)
// behind the unified solver interface.
type SyncCGA struct {
	Params Params
}

// Name implements solver.Solver.
func (s SyncCGA) Name() string { return "sync-cga" }

// Describe implements solver.Solver.
func (s SyncCGA) Describe() string {
	return "synchronous cellular GA (single thread, generation barrier)"
}

// WithSeed implements solver.Seeder.
func (s SyncCGA) WithSeed(seed uint64) solver.Solver {
	s.Params.Seed = seed
	return s
}

// WithStart implements solver.Restarter (see PACGA.WithStart).
func (s SyncCGA) WithStart(start *schedule.Schedule) solver.Solver {
	s.Params.SeedSchedule = start
	return s
}

// InitEvals implements solver.Initializer (see PACGA.InitEvals).
func (s SyncCGA) InitEvals(*etc.Instance) int64 {
	p := s.Params.withDefaults()
	return int64(p.GridW) * int64(p.GridH)
}

// Reproducible implements solver.Reproducible: the synchronous variant
// runs one thread behind a generation barrier.
func (s SyncCGA) Reproducible() bool { return true }

func init() {
	solver.Register(PACGA{Params: DefaultParams()})
	solver.Register(SyncCGA{Params: DefaultParams()})
}
