// Package core implements the paper's contribution: PA-CGA, a parallel
// asynchronous cellular genetic algorithm for multi-core processors
// (§3.2), applied to ETC-model batch scheduling.
//
// The population lives on a 2-D toroidal grid and is partitioned into
// contiguous row-major blocks, one per worker goroutine. Workers evolve
// their blocks independently — no generation barrier — and neighborhoods
// crossing block boundaries are the only communication. Shared access is
// synchronized with one read-write lock per individual, mirroring the
// paper's POSIX rwlocks. A synchronous single-threaded cellular GA is
// included for the async-vs-sync ablation and as the substrate of the
// cMA baseline.
//
// PACGA and SyncCGA are the entry points: each is configured by Params
// and run by Solve(ctx, inst, budget), which stops at the first of the
// budget's bounds or ctx's cancellation:
//
//	res, err := core.PACGA{Params: core.DefaultParams()}.Solve(ctx, inst,
//		solver.Budget{MaxDuration: 90 * time.Second})
package core

import (
	"fmt"

	"gridsched/internal/operators"
	"gridsched/internal/schedule"
	"gridsched/internal/topology"
)

// Params collects every knob of PA-CGA except the stop conditions,
// which come from the solver.Budget passed to Solve. DefaultParams
// returns the paper's Table 1 configuration; zero values for the
// interface-typed operators are filled with the Table 1 defaults by
// Solve. Two choices are fixed rather than configurable: the fitness
// is the makespan (§2.2), and an offspring replaces its cell only if
// it is strictly better (Table 1).
type Params struct {
	// GridW, GridH are the population mesh dimensions (Table 1: 16×16).
	GridW, GridH int
	// Neighborhood is the mating neighborhood (Table 1: L5, chosen to
	// reduce concurrent memory access).
	Neighborhood topology.Neighborhood
	// Selector picks the two parents among the neighborhood (Table 1:
	// best 2).
	Selector operators.Selector
	// Crossover recombines the parents (Table 1 evaluates opx and tpx;
	// tpx wins §4.2 and is the default).
	Crossover operators.Crossover
	// CrossProb is p_comb (Table 1: 1.0).
	CrossProb float64
	// Mutation perturbs the offspring (Table 1: move).
	Mutation operators.Mutation
	// MutProb is p_mut (Table 1: 1.0).
	MutProb float64
	// Local is the local search applied to the offspring (Table 1: H2LL
	// with 5 or 10 iterations; 10 wins §4.2 and is the default).
	Local operators.LocalSearch
	// LocalProb is p_ser (Table 1: 1.0).
	LocalProb float64
	// Threads is the number of population blocks / worker goroutines
	// (Table 1: 1–4; §4.2 finds 3 best and we default to 3).
	Threads int
	// Seed drives every random decision; fixed seed + evaluation budget
	// + one thread ⇒ bit-reproducible runs.
	Seed uint64
	// DisableMinMinSeed turns off the Min-min individual in the initial
	// population (Table 1 seeds exactly one).
	DisableMinMinSeed bool
	// SeedSchedule, when non-nil, injects (a clone of) this schedule as
	// one extra individual of the initial population — the warm-start
	// hook behind solver.Restarter, used by the racing portfolio to
	// seed GA restarts from the shared incumbent. It must belong to the
	// instance being solved; a mismatched schedule is ignored.
	SeedSchedule *schedule.Schedule
	// RecordConvergence enables per-generation sampling of the mean
	// block makespan, aggregated into Result.Convergence (Fig. 6).
	RecordConvergence bool
	// RecordDiversity enables per-generation sampling of genotypic
	// population diversity (mean per-task Simpson index: 1 − Σ p_m²,
	// where p_m is the fraction of individuals assigning the task to
	// machine m). Diversity preservation is the cellular GA's raison
	// d'être (§3.1); the series quantifies it.
	RecordDiversity bool
}

// DefaultParams returns the Table 1 parameterization with the §4.2
// winning choices (tpx, 10 H2LL iterations, 3 threads).
func DefaultParams() Params {
	return Params{
		GridW:        16,
		GridH:        16,
		Neighborhood: topology.L5,
		Selector:     operators.BestTwo{},
		Crossover:    operators.TwoPoint{},
		CrossProb:    1.0,
		Mutation:     operators.Move{},
		MutProb:      1.0,
		Local:        operators.H2LL{Iterations: 10},
		LocalProb:    1.0,
		Threads:      3,
		Seed:         1,
	}
}

// withDefaults fills nil operator fields from DefaultParams.
func (p Params) withDefaults() Params {
	def := DefaultParams()
	if p.GridW == 0 && p.GridH == 0 {
		p.GridW, p.GridH = def.GridW, def.GridH
	}
	if p.Selector == nil {
		p.Selector = def.Selector
	}
	if p.Crossover == nil {
		p.Crossover = def.Crossover
	}
	if p.Mutation == nil {
		p.Mutation = def.Mutation
	}
	if p.Local == nil {
		p.Local = def.Local
	}
	if p.Threads == 0 {
		p.Threads = def.Threads
	}
	return p
}

// validate rejects inconsistent parameter sets.
func (p Params) validate() error {
	if p.GridW <= 0 || p.GridH <= 0 {
		return fmt.Errorf("core: invalid grid %dx%d", p.GridW, p.GridH)
	}
	if p.Threads <= 0 {
		return fmt.Errorf("core: invalid thread count %d", p.Threads)
	}
	if p.Threads > p.GridW*p.GridH {
		return fmt.Errorf("core: %d threads exceed population %d", p.Threads, p.GridW*p.GridH)
	}
	for _, prob := range []struct {
		name string
		v    float64
	}{{"CrossProb", p.CrossProb}, {"MutProb", p.MutProb}, {"LocalProb", p.LocalProb}} {
		if prob.v < 0 || prob.v > 1 {
			return fmt.Errorf("core: %s = %v outside [0,1]", prob.name, prob.v)
		}
	}
	return nil
}
