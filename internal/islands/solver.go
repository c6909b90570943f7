package islands

import "gridsched/internal/solver"

// Solver is the island model behind the unified solver interface.
// Config carries everything but the stop conditions, which come from
// the Budget passed to Solve.
type Solver struct {
	Config Config
}

// Name implements solver.Solver.
func (s Solver) Name() string { return "islands" }

// Describe implements solver.Solver.
func (s Solver) Describe() string {
	return "island-model cellular GA: lock-free private populations coupled by ring migration"
}

// WithSeed implements solver.Seeder.
func (s Solver) WithSeed(seed uint64) solver.Solver {
	s.Config.Seed = seed
	return s
}

// Reproducible implements solver.Reproducible: islands evolve
// concurrently and migrants arrive whenever the ring delivers them, so
// equal seeds do not reproduce bit-identical runs.
func (s Solver) Reproducible() bool { return false }

func init() {
	solver.Register(Solver{Config: Config{Seed: 1, SeedMinMin: true}})
}
