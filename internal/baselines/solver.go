package baselines

import "gridsched/internal/solver"

// The baseline comparators behind the unified solver interface. Each
// registered value carries a default configuration mirroring the
// Table 2 setup (Min-min seed, the published operator rates); the
// Budget passed to Solve carries the stop conditions.

// StruggleSolver is the Struggle GA.
type StruggleSolver struct {
	Config StruggleConfig
}

// Name implements solver.Solver.
func (s StruggleSolver) Name() string { return "struggle" }

// Describe implements solver.Solver.
func (s StruggleSolver) Describe() string {
	return "Struggle GA of Xhafa (2006): steady-state, replaces the most similar individual"
}

// WithSeed implements solver.Seeder.
func (s StruggleSolver) WithSeed(seed uint64) solver.Solver {
	s.Config.Seed = seed
	return s
}

// Reproducible implements solver.Reproducible: a single-threaded
// steady-state loop.
func (s StruggleSolver) Reproducible() bool { return true }

// CMALTHSolver is the cellular memetic algorithm with local tabu hook.
type CMALTHSolver struct {
	Config CMALTHConfig
}

// Name implements solver.Solver.
func (s CMALTHSolver) Name() string { return "cma-lth" }

// Describe implements solver.Solver.
func (s CMALTHSolver) Describe() string {
	return "cMA+LTH of Xhafa et al. (2008): synchronous cellular memetic GA with a tabu hook"
}

// WithSeed implements solver.Seeder.
func (s CMALTHSolver) WithSeed(seed uint64) solver.Solver {
	s.Config.Seed = seed
	return s
}

// Reproducible implements solver.Reproducible: the synchronous cellular
// memetic loop runs one thread.
func (s CMALTHSolver) Reproducible() bool { return true }

// GenerationalSolver is the panmictic generational GA.
type GenerationalSolver struct {
	Config GenerationalConfig
}

// Name implements solver.Solver.
func (s GenerationalSolver) Name() string { return "generational" }

// Describe implements solver.Solver.
func (s GenerationalSolver) Describe() string {
	return "panmictic generational GA with elitism (the 'regular GA' of the cGA literature)"
}

// WithSeed implements solver.Seeder.
func (s GenerationalSolver) WithSeed(seed uint64) solver.Solver {
	s.Config.Seed = seed
	return s
}

// Reproducible implements solver.Reproducible: one thread, one stream.
func (s GenerationalSolver) Reproducible() bool { return true }

func init() {
	solver.Register(StruggleSolver{Config: StruggleConfig{Seed: 1, SeedMinMin: true}})
	solver.Register(CMALTHSolver{Config: CMALTHConfig{Seed: 1, SeedMinMin: true}})
	solver.Register(GenerationalSolver{Config: GenerationalConfig{Seed: 1, SeedMinMin: true}})
}
