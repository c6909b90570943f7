package baselines

import (
	"context"
	"testing"

	"gridsched/internal/etc"
	"gridsched/internal/heuristics"
	"gridsched/internal/solver"
)

// struggle, cmaLTH and generational solve through each baseline's
// Solve method.
func struggle(in *etc.Instance, cfg StruggleConfig, b solver.Budget) (*solver.Result, error) {
	return StruggleSolver{Config: cfg}.Solve(context.Background(), in, b)
}

func cmaLTH(in *etc.Instance, cfg CMALTHConfig, b solver.Budget) (*solver.Result, error) {
	return CMALTHSolver{Config: cfg}.Solve(context.Background(), in, b)
}

func generational(in *etc.Instance, cfg GenerationalConfig, b solver.Budget) (*solver.Result, error) {
	return GenerationalSolver{Config: cfg}.Solve(context.Background(), in, b)
}

func testInstance(t testing.TB, seed uint64) *etc.Instance {
	t.Helper()
	in, err := etc.Generate(etc.GenSpec{
		Class: etc.Class{Consistency: etc.Inconsistent, TaskHet: etc.High, MachineHet: etc.High},
		Tasks: 128, Machines: 16, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestStruggleBasic(t *testing.T) {
	in := testInstance(t, 1)
	res, err := struggle(in, StruggleConfig{Seed: 1, SeedMinMin: true}, solver.Budget{MaxEvaluations: 3000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Best.Complete() {
		t.Fatal("incomplete best schedule")
	}
	if err := res.Best.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Best.Makespan() != res.BestFitness {
		t.Fatal("fitness/schedule mismatch")
	}
	if res.Evaluations < 3000 {
		t.Fatalf("evaluations %d below budget", res.Evaluations)
	}
}

func TestStruggleDeterministic(t *testing.T) {
	in := testInstance(t, 2)
	cfg := StruggleConfig{Seed: 9}
	a, err := struggle(in, cfg, solver.Budget{MaxEvaluations: 2000})
	if err != nil {
		t.Fatal(err)
	}
	b, err := struggle(in, cfg, solver.Budget{MaxEvaluations: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if a.BestFitness != b.BestFitness || a.Evaluations != b.Evaluations {
		t.Fatal("struggle runs with identical seed differ")
	}
}

func TestStruggleImprovesOverRandomInit(t *testing.T) {
	in := testInstance(t, 3)
	short, err := struggle(in, StruggleConfig{Seed: 5}, solver.Budget{MaxEvaluations: 70})
	if err != nil {
		t.Fatal(err)
	}
	long, err := struggle(in, StruggleConfig{Seed: 5}, solver.Budget{MaxEvaluations: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if long.BestFitness >= short.BestFitness {
		t.Fatalf("20000 evals (%v) no better than 70 (%v)", long.BestFitness, short.BestFitness)
	}
}

func TestStruggleValidation(t *testing.T) {
	in := testInstance(t, 4)
	if _, err := struggle(in, StruggleConfig{Seed: 1}, solver.Budget{}); err == nil {
		t.Fatal("accepted missing stop condition")
	}
	if _, err := struggle(in, StruggleConfig{Seed: 1, PopSize: 1}, solver.Budget{MaxEvaluations: 10}); err == nil {
		t.Fatal("accepted population of one")
	}
}

func TestStruggleWithMinMinSeedAtLeastMinMin(t *testing.T) {
	in := testInstance(t, 5)
	mm := heuristics.MinMin(in).Makespan()
	res, err := struggle(in, StruggleConfig{Seed: 7, SeedMinMin: true}, solver.Budget{MaxEvaluations: 500})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestFitness > mm {
		t.Fatalf("struggle best %v worse than its Min-min seed %v", res.BestFitness, mm)
	}
}

func TestCMALTHBasic(t *testing.T) {
	in := testInstance(t, 6)
	res, err := cmaLTH(in, CMALTHConfig{GridW: 8, GridH: 8, Seed: 3, SeedMinMin: true}, solver.Budget{MaxEvaluations: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Best.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Generations == 0 {
		t.Fatal("cMA ran zero generations")
	}
}

func TestCMALTHDeterministic(t *testing.T) {
	in := testInstance(t, 7)
	cfg := CMALTHConfig{GridW: 8, GridH: 8, Seed: 11}
	a, err := cmaLTH(in, cfg, solver.Budget{MaxEvaluations: 1500})
	if err != nil {
		t.Fatal(err)
	}
	b, err := cmaLTH(in, cfg, solver.Budget{MaxEvaluations: 1500})
	if err != nil {
		t.Fatal(err)
	}
	if a.BestFitness != b.BestFitness {
		t.Fatal("cMA runs with identical seed differ")
	}
}

func TestCMALTHRequiresStopCondition(t *testing.T) {
	in := testInstance(t, 8)
	if _, err := cmaLTH(in, CMALTHConfig{Seed: 1}, solver.Budget{}); err == nil {
		t.Fatal("accepted missing stop condition")
	}
}

func TestBothBaselinesBeatRandomBaseline(t *testing.T) {
	// Sanity: the reimplemented literature algorithms must comfortably
	// beat a purely random schedule.
	in := testInstance(t, 9)
	st, err := struggle(in, StruggleConfig{Seed: 13, SeedMinMin: true}, solver.Budget{MaxEvaluations: 10000})
	if err != nil {
		t.Fatal(err)
	}
	cm, err := cmaLTH(in, CMALTHConfig{GridW: 8, GridH: 8, Seed: 13, SeedMinMin: true}, solver.Budget{MaxEvaluations: 10000})
	if err != nil {
		t.Fatal(err)
	}
	randomMakespan := heuristics.OLB(in).Makespan() // weak constructive bound
	if st.BestFitness > randomMakespan {
		t.Fatalf("struggle (%v) worse than OLB (%v)", st.BestFitness, randomMakespan)
	}
	if cm.BestFitness > randomMakespan {
		t.Fatalf("cMA+LTH (%v) worse than OLB (%v)", cm.BestFitness, randomMakespan)
	}
}
