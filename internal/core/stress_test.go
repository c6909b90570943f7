package core

import (
	"sync"
	"testing"

	"gridsched/internal/etc"
	"gridsched/internal/solver"
	"gridsched/internal/topology"
)

// Stress and robustness tests for the parallel engine beyond the unit
// tests in core_test.go: oversubscribed thread counts, degenerate grids,
// concurrent independent runs, and worst-case block shapes.

func stressInstance(t testing.TB, seed uint64) *etc.Instance {
	t.Helper()
	in, err := etc.Generate(etc.GenSpec{
		Class: etc.Class{Consistency: etc.SemiConsistent, TaskHet: etc.High, MachineHet: etc.Low},
		Tasks: 96, Machines: 12, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestRunManyThreadsBeyondPaper(t *testing.T) {
	// The paper stops at 4 threads; future work asks for more
	// parallelism. The engine must stay correct (if not faster) when
	// heavily oversubscribed.
	if testing.Short() {
		t.Skip("oversubscription stress skipped in -short mode")
	}
	in := stressInstance(t, 1)
	for _, threads := range []int{6, 8, 16} {
		p := DefaultParams()
		p.GridW, p.GridH = 8, 8
		p.Threads = threads
		p.Seed = 5
		res, err := run(in, p, solver.Budget{MaxEvaluations: 4000})
		if err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		if err := res.Best.Validate(); err != nil {
			t.Fatalf("threads=%d: corrupt best: %v", threads, err)
		}
		if len(res.PerThread) != threads {
			t.Fatalf("threads=%d: %d per-thread entries", threads, len(res.PerThread))
		}
	}
}

func TestRunOneThreadPerCell(t *testing.T) {
	// Extreme partition: every individual its own block (4x4 grid, 16
	// threads). Every neighborhood read crosses block boundaries.
	if testing.Short() {
		t.Skip("one-thread-per-cell stress skipped in -short mode")
	}
	in := stressInstance(t, 2)
	p := DefaultParams()
	p.GridW, p.GridH = 4, 4
	p.Threads = 16
	p.Seed = 7
	res, err := run(in, p, solver.Budget{MaxEvaluations: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Best.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRunDegenerateGrids(t *testing.T) {
	in := stressInstance(t, 3)
	shapes := [][2]int{{1, 16}, {16, 1}, {2, 3}, {1, 1}}
	for _, sh := range shapes {
		p := DefaultParams()
		p.GridW, p.GridH = sh[0], sh[1]
		p.Threads = 1
		p.Seed = 9
		res, err := run(in, p, solver.Budget{MaxEvaluations: 500})
		if err != nil {
			t.Fatalf("grid %dx%d: %v", sh[0], sh[1], err)
		}
		if err := res.Best.Validate(); err != nil {
			t.Fatalf("grid %dx%d: %v", sh[0], sh[1], err)
		}
	}
}

func TestConcurrentIndependentRuns(t *testing.T) {
	// Multiple engines sharing one immutable instance must not
	// interfere: the instance is read-only and all mutable state is
	// engine-local.
	if testing.Short() {
		t.Skip("concurrent independent-run stress skipped in -short mode")
	}
	in := stressInstance(t, 4)
	var wg sync.WaitGroup
	results := make([]*Result, 6)
	errs := make([]error, 6)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := DefaultParams()
			p.GridW, p.GridH = 8, 8
			p.Threads = 2
			p.Seed = 100 // identical seed: single-engine determinism is per-run
			results[i], errs[i] = run(in, p, smallBudget)
		}(i)
	}
	wg.Wait()
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if err := results[i].Best.Validate(); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
}

func TestRunTinyEvaluationBudget(t *testing.T) {
	// A budget below the initial population size: the engine must stop
	// immediately after (or during) initialization without breeding.
	in := stressInstance(t, 5)
	p := DefaultParams()
	p.GridW, p.GridH = 8, 8
	p.Threads = 2
	p.Seed = 3
	res, err := run(in, p, solver.Budget{MaxEvaluations: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Generations != 0 {
		t.Fatalf("generations %d with a sub-initialization budget", res.Generations)
	}
	if res.Best == nil || !res.Best.Complete() {
		t.Fatal("no valid best from the initial population")
	}
}

func TestRunAllNeighborhoods(t *testing.T) {
	in := stressInstance(t, 6)
	for _, n := range []topology.Neighborhood{topology.L5, topology.C9, topology.L9} {
		p := DefaultParams()
		p.GridW, p.GridH = 8, 8
		p.Threads = 3
		p.Neighborhood = n
		p.Seed = 11
		res, err := run(in, p, smallBudget)
		if err != nil {
			t.Fatalf("%v: %v", n, err)
		}
		if err := res.Best.Validate(); err != nil {
			t.Fatalf("%v: %v", n, err)
		}
	}
}

func TestRunZeroProbabilityOperators(t *testing.T) {
	// All operator probabilities zero: offspring are pure copies of the
	// best parent; with replace-if-better nothing ever replaces, and the
	// engine must still terminate and report the Min-min seed as best.
	in := stressInstance(t, 8)
	p := DefaultParams()
	p.GridW, p.GridH = 8, 8
	p.Threads = 2
	p.CrossProb, p.MutProb, p.LocalProb = 0, 0, 0
	p.Seed = 17
	res, err := run(in, p, solver.Budget{MaxEvaluations: 2000})
	if err != nil {
		t.Fatal(err)
	}
	// Cell 0 holds Min-min; nothing can improve on it without operators.
	mmFit := res.BestFitness
	p2 := p
	res2, err := run(in, p2, solver.Budget{MaxEvaluations: 200})
	if err != nil {
		t.Fatal(err)
	}
	if res2.BestFitness != mmFit {
		t.Fatalf("operator-free evolution changed the best: %v vs %v", res2.BestFitness, mmFit)
	}
}

func TestResultPerThreadSumsToGenerations(t *testing.T) {
	in := stressInstance(t, 9)
	p := DefaultParams()
	p.GridW, p.GridH = 8, 8
	p.Threads = 4
	p.Seed = 19
	res, err := run(in, p, solver.Budget{MaxEvaluations: 5000})
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, g := range res.PerThread {
		sum += g
	}
	if sum != res.Generations {
		t.Fatalf("PerThread sums to %d, Generations %d", sum, res.Generations)
	}
}
