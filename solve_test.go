package gridsched

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"
)

// solveTestInstance is a small instance every registered solver can
// chew through quickly.
func solveTestInstance(t *testing.T) *Instance {
	t.Helper()
	in, err := Generate(GenSpec{
		Class:    Class{Consistency: Inconsistent, TaskHet: HighHet, MachineHet: HighHet},
		Tasks:    24,
		Machines: 4,
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// parallelSolvers race on a shared evaluation counter, so two runs with
// the same seed may interleave differently; every other solver must be
// bit-reproducible under a fixed seed and evaluation budget.
var parallelSolvers = map[string]bool{"pa-cga": true, "islands": true, "portfolio": true}

// compositeSolvers race constituent solvers under nested child
// budgets. Their adherence contract lives in the conformance kit and
// the portfolio package's accounting tests (at budgets that dwarf the
// constituents' initialization costs); at this file's tiny parity
// budget a composite may legitimately strand a conceded remainder
// below a constituent's restart floor, and a pre-cancelled run has no
// initial evaluation of its own to fall back on, so it reports the
// context error instead of inventing a schedule.
var compositeSolvers = map[string]bool{"portfolio": true}

// zeroBudgetSolvers are the constructive heuristics: single-pass,
// budget-ignoring, fully deterministic.
func zeroBudgetSolvers() map[string]bool {
	m := map[string]bool{}
	for _, name := range HeuristicNames() {
		m[name] = true
	}
	return m
}

// TestSolveRegistryRoundTrip resolves every registered solver by name
// and solves the same tiny instance under each budget of the table,
// checking the common Result contract — and bit-reproducibility for the
// non-parallel solvers.
func TestSolveRegistryRoundTrip(t *testing.T) {
	in := solveTestInstance(t)
	zero := zeroBudgetSolvers()
	names := SolverNames()
	if len(names) < 14 {
		t.Fatalf("only %d registered solvers: %v", len(names), names)
	}
	const gens = 3
	for _, tc := range []struct {
		budget Budget
		// rejects lists the solvers that must refuse the budget.
		rejects map[string]bool
		// wantGens pins exact generation counts.
		wantGens map[string]int64
	}{
		{budget: Budget{MaxEvaluations: 600}},
		// Generations only: struggle is steady-state (it has no
		// generations), so accepting this budget would run it unbounded;
		// cma-lth must hand the bound to its synchronous engine.
		{
			budget:   Budget{MaxGenerations: gens},
			rejects:  map[string]bool{"struggle": true},
			wantGens: map[string]int64{"cma-lth": gens, "sync-cga": gens},
		},
	} {
		for _, name := range names {
			opts := SolveOptions{Budget: tc.budget, Seed: 7}
			res, err := Solve(context.Background(), name, in, opts)
			if tc.rejects[name] {
				if err == nil {
					t.Fatalf("%s: accepted budget %v", name, tc.budget)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s (%v): %v", name, tc.budget, err)
			}
			if res.Best == nil || !res.Best.Complete() {
				t.Fatalf("%s: incomplete best schedule", name)
			}
			if err := res.Best.Validate(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if res.BestFitness <= 0 || res.Evaluations <= 0 {
				t.Fatalf("%s: degenerate result %+v", name, res)
			}
			if zero[name] && res.Evaluations != 1 {
				t.Fatalf("%s: zero-budget solver reported %d evaluations", name, res.Evaluations)
			}
			if g := tc.budget.MaxGenerations; g > 0 {
				// One generation bound per concurrent worker at most.
				if res.Generations > g*8 {
					t.Fatalf("%s: %d generations under a per-worker bound of %d", name, res.Generations, g)
				}
				if want, ok := tc.wantGens[name]; ok && res.Generations != want {
					t.Fatalf("%s: %d generations, want %d", name, res.Generations, want)
				}
			}
			if parallelSolvers[name] {
				continue
			}
			again, err := Solve(context.Background(), name, in, opts)
			if err != nil {
				t.Fatalf("%s (rerun): %v", name, err)
			}
			if again.BestFitness != res.BestFitness {
				t.Fatalf("%s: not deterministic under fixed seed: %v vs %v",
					name, res.BestFitness, again.BestFitness)
			}
		}
	}
}

// TestSolveBudgetParity asserts every iterative solver respects
// MaxEvaluations within one breeding step per concurrent worker — the
// contract the shared stop-condition engine enforces for all of them.
func TestSolveBudgetParity(t *testing.T) {
	in := solveTestInstance(t)
	zero := zeroBudgetSolvers()
	const budget = 600
	const slack = 8 // max concurrent workers: one in-flight breeding step each
	for _, name := range SolverNames() {
		if zero[name] || compositeSolvers[name] {
			continue
		}
		res, err := Solve(context.Background(), name, in, SolveOptions{Budget: Budget{MaxEvaluations: budget}, Seed: 3})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Evaluations < budget || res.Evaluations > budget+slack {
			t.Fatalf("%s: %d evaluations under a budget of %d (allowed overshoot %d)",
				name, res.Evaluations, budget, slack)
		}
	}
}

// TestSolveMissingStopCondition ensures iterative solvers reject an
// empty budget instead of running forever.
func TestSolveMissingStopCondition(t *testing.T) {
	in := solveTestInstance(t)
	zero := zeroBudgetSolvers()
	for _, name := range SolverNames() {
		if zero[name] {
			continue
		}
		if _, err := Solve(context.Background(), name, in, SolveOptions{}); err == nil {
			t.Fatalf("%s: empty budget accepted", name)
		}
	}
}

// TestSolveContextCancellation covers both cancellation modes: a
// pre-cancelled context stops every iterative solver after the initial
// evaluation, and a mid-run cancel ends a long wall-clock run promptly.
func TestSolveContextCancellation(t *testing.T) {
	in := solveTestInstance(t)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	zero := zeroBudgetSolvers()
	for _, name := range SolverNames() {
		if zero[name] {
			continue
		}
		res, err := Solve(cancelled, name, in, SolveOptions{Budget: Budget{MaxDuration: time.Hour}})
		if compositeSolvers[name] && err != nil {
			continue // nothing ran, nothing to report: the context error is the honest outcome
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Only the initial population (plus at most one coarse polling
		// window of steady-state steps) may have been evaluated.
		if res.Evaluations > 600 {
			t.Fatalf("%s: %d evaluations despite cancelled context", name, res.Evaluations)
		}
	}

	ctx, cancelLive := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancelLive()
	}()
	start := time.Now()
	if _, err := Solve(ctx, "pa-cga", in, SolveOptions{Budget: Budget{MaxDuration: time.Hour}}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation ignored: run took %v", elapsed)
	}
}

// TestSolveUnknownName checks the registry error path through the
// facade.
func TestSolveUnknownName(t *testing.T) {
	in := solveTestInstance(t)
	if _, err := Solve(context.Background(), "no-such-solver", in, SolveOptions{}); err == nil {
		t.Fatal("unknown solver accepted")
	}
	if _, err := LookupSolver("tabu"); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeSweep runs a small scenario sweep through the public entry
// point: classes × solvers through the service pool, with the report
// rendering both ways.
func TestFacadeSweep(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rep, err := Sweep(ctx, SweepConfig{
		Classes: []Class{
			{Consistency: Consistent, TaskHet: HighHet, MachineHet: HighHet},
			{Consistency: Inconsistent, TaskHet: LowHet, MachineHet: LowHet},
		},
		Tasks:    48,
		Machines: 6,
		Solvers:  []string{"minmin", "tabu"},
		Budget:   Budget{MaxEvaluations: 400},
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 4 {
		t.Fatalf("got %d cells, want 4", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if c.State != JobDone {
			t.Fatalf("%s on %s: %s (%s)", c.Solver, c.Instance, c.State, c.Err)
		}
	}
	if table := rep.Table(); !strings.Contains(table, "tabu") || !strings.Contains(table, "minmin") {
		t.Fatalf("table missing solver rows:\n%s", table)
	}
	var buf bytes.Buffer
	if err := rep.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 5 {
		t.Fatalf("CSV has %d lines, want 5", lines)
	}
}
