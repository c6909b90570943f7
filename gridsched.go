// Package gridsched is a reproduction of "A New Parallel Asynchronous
// Cellular Genetic Algorithm for Scheduling in Grids" (Pinel, Dorronsoro,
// Bouvry; IPDPS Workshops 2010) as a reusable Go library.
//
// It schedules independent tasks on heterogeneous machines under the
// Expected Time to Compute (ETC) model, minimizing makespan, using the
// paper's PA-CGA: a cellular genetic algorithm whose toroidal population
// is partitioned into contiguous blocks evolved asynchronously by
// concurrent goroutines, with per-individual read-write locks and the
// H2LL local search. The package also bundles the classic constructive
// heuristics (Min-min & co.), two literature metaheuristic baselines
// (Struggle GA and cMA+LTH), and the experiment harness reproducing the
// paper's tables and figures.
//
// Quick start:
//
//	inst, _ := gridsched.GenerateInstance("u_i_hihi.0")
//	res, _ := gridsched.PACGA{Params: gridsched.DefaultParams()}.Solve(ctx, inst,
//		gridsched.Budget{MaxDuration: 2 * time.Second})
//	fmt.Println("makespan:", res.BestFitness)
//
// Every algorithm is a typed solver value (PACGA, SyncCGA, IslandSolver,
// StruggleSolver, CMALTHSolver, GenerationalSolver) whose fields carry
// its configuration and whose Solve(ctx, inst, budget) is the one way to
// run it: the Budget holds every stop condition. Each also registers
// itself with the unified solver layer, so the whole family is
// reachable by name with its registered defaults:
//
//	res, _ := gridsched.Solve(ctx, "pa-cga", inst, gridsched.SolveOptions{
//		Budget: gridsched.Budget{MaxEvaluations: 100000},
//	})
//
// SolverNames lists what is available (the cellular GAs, the literature
// baselines, the island model, standalone tabu search, the iterated
// H2LL hill climber, the racing portfolio meta-solver, and the seven
// constructive heuristics as zero-budget solvers).
//
// The subpackages under internal/ hold the implementation; this package
// is the supported public surface.
package gridsched

import (
	"context"
	"io"

	"gridsched/internal/baselines"
	"gridsched/internal/core"
	"gridsched/internal/etc"
	"gridsched/internal/experiments"
	"gridsched/internal/gridsim"
	"gridsched/internal/heuristics"
	"gridsched/internal/instdb"
	"gridsched/internal/islands"
	"gridsched/internal/operators"
	"gridsched/internal/rng"
	"gridsched/internal/scenarios"
	"gridsched/internal/schedule"
	"gridsched/internal/service"
	"gridsched/internal/solver"
	"gridsched/internal/stats"
	"gridsched/internal/topology"
)

// --- Instances (ETC model) ---

// Instance is an ETC scheduling instance: tasks × machines expected
// execution times plus per-machine ready times.
type Instance = etc.Instance

// Class identifies a Braun benchmark family (consistency × task
// heterogeneity × machine heterogeneity), e.g. u_c_hihi.0.
type Class = etc.Class

// GenSpec parameterizes synthetic instance generation.
type GenSpec = etc.GenSpec

// Consistency and heterogeneity enums of the Braun instance classes.
const (
	Consistent     = etc.Consistent
	Inconsistent   = etc.Inconsistent
	SemiConsistent = etc.SemiConsistent
	LowHet         = etc.Low
	HighHet        = etc.High
)

// GenerateInstance builds the named Braun-style benchmark instance
// (e.g. "u_c_hihi.0") at the paper's 512×16 dimensions,
// deterministically.
func GenerateInstance(name string) (*Instance, error) { return etc.GenerateByName(name) }

// Generate builds a synthetic instance from an explicit specification.
func Generate(spec GenSpec) (*Instance, error) { return etc.Generate(spec) }

// BenchmarkSuite returns the paper's 12 evaluation instances.
func BenchmarkSuite() ([]*Instance, error) { return etc.Benchmark() }

// NewInstanceFromMatrix builds an instance from an explicit row-major
// ETC matrix (len = tasks×machines); useful when workloads and machine
// speeds come from an application rather than the benchmark generator.
func NewInstanceFromMatrix(name string, tasks, machines int, row []float64) (*Instance, error) {
	return etc.New(name, tasks, machines, row)
}

// InstanceMetrics summarizes an ETC matrix: heterogeneity coefficients,
// the consistency index and the load-balance lower bound on makespan.
type InstanceMetrics = etc.Metrics

// ComputeMetrics measures an instance's statistical character.
func ComputeMetrics(in *Instance) InstanceMetrics { return etc.ComputeMetrics(in) }

// ReadInstance parses the HCSP text format (header "tasks machines"
// followed by one ETC value per line).
func ReadInstance(name string, r io.Reader) (*Instance, error) { return etc.Read(name, r) }

// WriteInstance serializes an instance in the HCSP text format.
func WriteInstance(in *Instance, w io.Writer) error { return in.Write(w) }

// --- Schedules ---

// Schedule is a task→machine assignment with incrementally maintained
// per-machine completion times; Makespan is its fitness.
type Schedule = schedule.Schedule

// NewSchedule returns an empty schedule for the instance.
func NewSchedule(in *Instance) *Schedule { return schedule.New(in) }

// RandomSchedule returns a uniformly random complete schedule.
func RandomSchedule(in *Instance, seed uint64) *Schedule {
	return schedule.NewRandom(in, rng.New(seed))
}

// --- Unified solver layer ---

// Solver is the uniform run contract every algorithm in the library
// implements and registers under a stable name; see SolverNames.
type Solver = solver.Solver

// Budget bounds a solver run: wall-clock, evaluation and generation
// limits compose, and the run stops at whichever fires first. The
// constructive heuristics ignore it (zero-budget solvers).
type Budget = solver.Budget

// SolverResult is the result shape shared by every solver (identical
// to Result).
type SolverResult = solver.Result

// ConstituentResult is one constituent's share of a racing portfolio
// run (SolverResult.Constituents): its evaluations, restart rounds,
// incumbent contributions and busy time. The portfolio meta-solver is
// registered as "portfolio" (pa-cga + tabu + h2ll) and ad-hoc
// compositions resolve through the registry as
// "portfolio:name+name+..." — e.g. Solve("portfolio:ga+tabu", ...).
type ConstituentResult = solver.ConstituentResult

// SolveOptions configures a Solve call. The zero value runs the named
// solver with its registered default configuration — note iterative
// solvers require at least one Budget bound.
type SolveOptions struct {
	// Budget is the stop-condition set.
	Budget Budget
	// Seed, when non-zero, reseeds the solver's randomness (each
	// registered solver defaults to seed 1; deterministic constructive
	// heuristics ignore it).
	Seed uint64
}

// Solve runs the named registered solver — any of the metaheuristics
// or constructive heuristics — on the instance under one uniform
// contract; cancelling ctx stops the run early. It is the single
// dispatch surface the CLIs and the experiment harness build on.
func Solve(ctx context.Context, name string, inst *Instance, opts SolveOptions) (*SolverResult, error) {
	s, err := solver.Lookup(name)
	if err != nil {
		return nil, err
	}
	if opts.Seed != 0 {
		s = solver.WithSeed(s, opts.Seed)
	}
	return s.Solve(ctx, inst, opts.Budget)
}

// LookupSolver resolves a registered solver by name.
func LookupSolver(name string) (Solver, error) { return solver.Lookup(name) }

// SolverNames lists every registered solver name, sorted.
func SolverNames() []string { return solver.Names() }

// SolverInfo pairs a registry name with its one-line description.
type SolverInfo = solver.Info

// Solvers lists every registered solver with its description, sorted
// by name — the shared source for CLI listings.
func Solvers() []SolverInfo { return solver.List() }

// --- PA-CGA (the paper's algorithm) ---

// Params configures PA-CGA; see DefaultParams for the paper's Table 1
// values.
type Params = core.Params

// PACGA is the parallel asynchronous cellular GA as a typed solver:
// PACGA{Params: p}.Solve(ctx, inst, budget) runs it with a custom
// configuration, stopping at the first of the budget's bounds or ctx's
// cancellation and reporting the best schedule found so far.
type PACGA = core.PACGA

// SyncCGA is the synchronous cellular GA variant (single thread,
// generation barrier); the substrate of the cMA baseline and the
// async-vs-sync ablation.
type SyncCGA = core.SyncCGA

// Result reports a run: best schedule, fitness, evaluation and
// generation counts, and the optional convergence series.
type Result = core.Result

// DefaultParams returns the paper's Table 1 configuration (16×16
// population, L5 neighborhood, best-2 selection, tpx crossover, move
// mutation, H2LL×10, replace-if-better, 3 threads).
func DefaultParams() Params { return core.DefaultParams() }

// Operator constructors for Params customization.

// CrossoverByName resolves "opx", "tpx" or "ux".
func CrossoverByName(name string) (operators.Crossover, error) { return operators.ParseCrossover(name) }

// MutationByName resolves "move", "swap" or "rebalance".
func MutationByName(name string) (operators.Mutation, error) { return operators.ParseMutation(name) }

// H2LL returns the paper's local search with the given iteration budget.
func H2LL(iterations int) operators.LocalSearch { return operators.H2LL{Iterations: iterations} }

// NeighborhoodByName resolves "L5", "C9" or "L9".
func NeighborhoodByName(name string) (topology.Neighborhood, error) {
	return topology.ParseNeighborhood(name)
}

// --- Constructive heuristics ---

// MinMin runs the Min-min heuristic (the population seed of Table 1).
func MinMin(in *Instance) *Schedule { return heuristics.MinMin(in) }

// MaxMin runs the Max-min heuristic.
func MaxMin(in *Instance) *Schedule { return heuristics.MaxMin(in) }

// Sufferage runs the Sufferage heuristic.
func Sufferage(in *Instance) *Schedule { return heuristics.Sufferage(in) }

// HeuristicByName resolves any of minmin, maxmin, mct, met, olb,
// sufferage, ljfr-sjfr.
func HeuristicByName(name string) (func(*Instance) *Schedule, error) {
	h, err := heuristics.ByName(name)
	if err != nil {
		return nil, err
	}
	return h, nil
}

// HeuristicNames lists the available constructive heuristics.
func HeuristicNames() []string { return heuristics.Names() }

// --- Literature baselines (Table 2 comparators) ---

// StruggleConfig configures the Struggle GA baseline.
type StruggleConfig = baselines.StruggleConfig

// StruggleSolver is the Struggle GA of Xhafa (2006):
// StruggleSolver{Config: cfg}.Solve(ctx, inst, budget).
type StruggleSolver = baselines.StruggleSolver

// CMALTHConfig configures the cellular memetic (tabu hook) baseline.
type CMALTHConfig = baselines.CMALTHConfig

// CMALTHSolver is the cellular memetic algorithm with local tabu hook
// of Xhafa et al. (2008).
type CMALTHSolver = baselines.CMALTHSolver

// GenerationalConfig configures the panmictic generational GA baseline —
// the "regular GA" cellular GAs are claimed to outperform (§1).
type GenerationalConfig = baselines.GenerationalConfig

// GenerationalSolver is the panmictic generational GA.
type GenerationalSolver = baselines.GenerationalSolver

// IslandConfig configures the distributed island-model cellular GA: the
// message-passing parallelization contrasted with PA-CGA's shared
// memory. Islands evolve lock-free private populations coupled only by
// elite migration over a channel ring.
type IslandConfig = islands.Config

// IslandSolver is the island-model cellular GA:
// IslandSolver{Config: cfg}.Solve(ctx, inst, budget).
type IslandSolver = islands.Solver

// --- Scheduling service ---

// Service is the embeddable long-running scheduling service: a job
// manager, a bounded queue and a fixed worker pool that executes
// submitted jobs through the solver registry, with per-job contexts
// riding the shared budget engine, TTL-based result retention, an LRU
// instance cache, and per-solver throughput/latency stats. The same
// operations are exposed over HTTP by Service.Handler and served
// stand-alone by cmd/gridschedd.
type Service = service.Server

// ServiceConfig parameterizes NewService; its zero value is usable.
type ServiceConfig = service.Config

// JobSpec is a solve request: a registered solver name, an instance
// (benchmark class name or inline matrix) and a budget.
type JobSpec = service.JobSpec

// JobMatrix is an inline ETC matrix inside a JobSpec.
type JobMatrix = service.MatrixSpec

// Job is an immutable snapshot of a submitted job.
type Job = service.Job

// JobResult is a finished job's schedule metrics and work counters.
type JobResult = service.JobResult

// JobState is the job lifecycle state.
type JobState = service.JobState

// The job lifecycle states: queued → running → done/failed/cancelled.
const (
	JobQueued    = service.StateQueued
	JobRunning   = service.StateRunning
	JobDone      = service.StateDone
	JobFailed    = service.StateFailed
	JobCancelled = service.StateCancelled
)

// ServiceStats, ServiceSolverStats and ServiceShardStats are the
// service's counters snapshot: totals, the per-solver breakdown, and
// the one-row run-queue view (submission and retirement counts plus
// live queue gauges; its steal count is always 0).
type (
	ServiceStats       = service.Stats
	ServiceSolverStats = service.SolverStats
	ServiceShardStats  = service.ShardStats
)

// Service sentinel errors.
var (
	// ErrQueueFull reports submit backpressure (the bounded queue is at
	// capacity).
	ErrQueueFull = service.ErrQueueFull
	// ErrJobNotFound reports an unknown or already evicted job ID.
	ErrJobNotFound = service.ErrNotFound
	// ErrServiceClosed reports a submit after shutdown started.
	ErrServiceClosed = service.ErrClosed
)

// NewService starts a scheduling service; stop it with Shutdown (or
// Close for an immediate cancel-and-drain).
func NewService(cfg ServiceConfig) *Service { return service.New(cfg) }

// --- Instance store ---

// InstanceStore is a decoded binary repository of pre-generated ETC
// instances (built by cmd/instdb): lookups are zero-copy, zero-alloc
// views over one shared arena. Plug it into ServiceConfig.InstanceDB
// to serve named instances without on-demand generation.
type InstanceStore = instdb.Store

// InstanceDB wraps an InstanceStore file with atomic hot reload:
// Reload swaps in a freshly decoded snapshot while readers holding the
// old one stay valid (gridschedd triggers it on SIGHUP).
type InstanceDB = instdb.DB

// BuildInstanceStore generates the named benchmark instances and
// writes a store file atomically (see instdb.BuildFile).
func BuildInstanceStore(path string, names []string) (instdb.BuildStats, error) {
	return instdb.BuildFile(path, names)
}

// OpenInstanceStore opens a store file for serving with hot reload.
func OpenInstanceStore(path string) (*InstanceDB, error) { return instdb.Open(path) }

// --- Scenario sweep (solver × benchmark-class matrix) ---

// SweepConfig parameterizes a scenario sweep; its zero value sweeps
// every registered solver over the full 12-class Braun matrix at the
// paper's 512×16 dimensions.
type SweepConfig = scenarios.Config

// SweepReport is the per-solver × per-class quality/latency report;
// render it with Table or WriteCSV.
type SweepReport = scenarios.Report

// SweepCell is one solver × class outcome inside a SweepReport.
type SweepCell = scenarios.Cell

// SweepSummary aggregates one solver across every swept class.
type SweepSummary = scenarios.Summary

// Sweep runs every requested solver on every requested benchmark class
// through a dedicated scheduling service (worker-pool fan-out, shared
// instance cache) and reports quality ratios and latencies. The same
// sweep is available stand-alone as cmd/sweep.
func Sweep(ctx context.Context, cfg SweepConfig) (*SweepReport, error) {
	return scenarios.Sweep(ctx, cfg)
}

// --- Grid simulation (§2.1's dynamic environment) ---

// SimConfig configures the discrete-event grid simulator: execution-time
// noise, machine failures (MTBF / repair time) and the rescheduling
// policy for orphaned tasks.
type SimConfig = gridsim.Config

// SimResult reports a simulated execution: actual vs predicted makespan,
// failure/restart counts, per-task finish times and an optional trace.
type SimResult = gridsim.Result

// Simulate executes a schedule on the simulated dynamic grid. With zero
// noise and no failures the simulated makespan equals the schedule's
// predicted makespan exactly.
func Simulate(in *Instance, s *Schedule, cfg SimConfig) (*SimResult, error) {
	return gridsim.Simulate(in, s, cfg)
}

// --- Experiments (paper reproduction) ---

// Scale sets experiment budgets (replications × wall time or evaluation
// budget); CIScale is laptop-friendly, PaperScale is the full protocol.
type Scale = experiments.Scale

// CIScale returns deterministic, fast experiment budgets.
func CIScale() Scale { return experiments.CIScale() }

// PaperScale returns the paper's 100×90 s budgets.
func PaperScale() Scale { return experiments.PaperScale() }

// Experiment entry points; each returns structured rows, and the
// corresponding Render function formats them like the paper.

// Fig4Row etc. re-export the experiment row types.
type (
	Fig4Row    = experiments.Fig4Row
	Fig5Cell   = experiments.Fig5Cell
	Table2Row  = experiments.Table2Row
	Fig6Series = experiments.Fig6Series
)

// Fig4 measures evaluation-throughput speedup vs threads and H2LL
// iterations (requires a wall-clock scale). Cancelling ctx aborts the
// experiment with the context's error; the same holds for Fig5, Table2,
// Fig6 and DiversityStudy.
func Fig4(ctx context.Context, in *Instance, sc Scale) ([]Fig4Row, error) {
	return experiments.Fig4(ctx, in, sc)
}

// Fig5 compares opx/tpx × 5/10 H2LL iterations over instances.
func Fig5(ctx context.Context, ins []*Instance, sc Scale) ([]Fig5Cell, error) {
	return experiments.Fig5(ctx, ins, sc)
}

// Table2 compares PA-CGA against the named comparator solvers; the
// paper's table uses "struggle" and "cma-lth".
func Table2(ctx context.Context, ins []*Instance, sc Scale, comparators []string) ([]Table2Row, error) {
	return experiments.Table2(ctx, ins, sc, comparators)
}

// Fig6 records population convergence for 1..4 threads.
func Fig6(ctx context.Context, in *Instance, sc Scale) ([]Fig6Series, error) {
	return experiments.Fig6(ctx, in, sc)
}

// DiversitySeries is one population model's diversity trajectory.
type DiversitySeries = experiments.DiversitySeries

// DiversityStudy compares how cellular and panmictic populations retain
// genotypic diversity — §3.1's founding claim.
func DiversityStudy(ctx context.Context, in *Instance, sc Scale) ([]DiversitySeries, error) {
	return experiments.DiversityStudy(ctx, in, sc)
}

// Render helpers (text output in the paper's shape).
var (
	RenderFig4      = experiments.RenderFig4
	RenderFig5      = experiments.RenderFig5
	RenderTable2    = experiments.RenderTable2
	RenderFig6      = experiments.RenderFig6
	RenderDiversity = experiments.RenderDiversity
	Table1          = experiments.Table1
)

// --- Statistics re-exports used by downstream analysis ---

// BoxPlot is a five-number summary with 95 % median notches.
type BoxPlot = stats.BoxPlot

// NewBoxPlot summarizes a sample.
func NewBoxPlot(xs []float64) (BoxPlot, error) { return stats.NewBoxPlot(xs) }

// RankSum is the two-sided Mann-Whitney test (U statistic, p-value).
func RankSum(xs, ys []float64) (float64, float64, error) { return stats.RankSum(xs, ys) }
