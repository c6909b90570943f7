package baselines

import (
	"testing"

	"gridsched/internal/heuristics"
	"gridsched/internal/rng"
	"gridsched/internal/schedule"
	"gridsched/internal/solver"
)

func TestGenerationalBasic(t *testing.T) {
	in := testInstance(t, 20)
	res, err := generational(in, GenerationalConfig{Seed: 1, PopSize: 64, SeedMinMin: true}, solver.Budget{MaxGenerations: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Best.Complete() {
		t.Fatal("incomplete best")
	}
	if err := res.Best.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Generations != 10 {
		t.Fatalf("generations %d, want 10", res.Generations)
	}
	// 64 initial + 10 * (64-2 elite) breedings.
	if want := int64(64 + 10*62); res.Evaluations != want {
		t.Fatalf("evaluations %d, want %d", res.Evaluations, want)
	}
}

func TestGenerationalDeterministic(t *testing.T) {
	in := testInstance(t, 21)
	cfg := GenerationalConfig{Seed: 3, PopSize: 32}
	a, err := generational(in, cfg, solver.Budget{MaxGenerations: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := generational(in, cfg, solver.Budget{MaxGenerations: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a.BestFitness != b.BestFitness || a.Evaluations != b.Evaluations {
		t.Fatal("generational runs with identical seed differ")
	}
}

func TestGenerationalElitismMonotoneBest(t *testing.T) {
	// With elitism the best fitness can never worsen across generations.
	in := testInstance(t, 22)
	short, err := generational(in, GenerationalConfig{Seed: 5, PopSize: 64, SeedMinMin: true}, solver.Budget{MaxGenerations: 2})
	if err != nil {
		t.Fatal(err)
	}
	long, err := generational(in, GenerationalConfig{Seed: 5, PopSize: 64, SeedMinMin: true}, solver.Budget{MaxGenerations: 30})
	if err != nil {
		t.Fatal(err)
	}
	if long.BestFitness > short.BestFitness {
		t.Fatalf("best worsened with more generations: %v -> %v", short.BestFitness, long.BestFitness)
	}
}

func TestGenerationalKeepsMinMinSeedThroughElitism(t *testing.T) {
	in := testInstance(t, 23)
	mm := heuristics.MinMin(in).Makespan()
	res, err := generational(in, GenerationalConfig{Seed: 7, PopSize: 32, SeedMinMin: true}, solver.Budget{MaxGenerations: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestFitness > mm {
		t.Fatalf("best %v worse than the elitism-protected Min-min seed %v", res.BestFitness, mm)
	}
}

func TestGenerationalValidation(t *testing.T) {
	in := testInstance(t, 24)
	if _, err := generational(in, GenerationalConfig{Seed: 1}, solver.Budget{}); err == nil {
		t.Fatal("accepted missing stop condition")
	}
	if _, err := generational(in, GenerationalConfig{Seed: 1, PopSize: 1}, solver.Budget{MaxGenerations: 1}); err == nil {
		t.Fatal("accepted tiny population")
	}
	if _, err := generational(in, GenerationalConfig{Seed: 1, PopSize: 4, Elite: 4}, solver.Budget{MaxGenerations: 1}); err == nil {
		t.Fatal("accepted elite >= population")
	}
}

func TestGenerationalEvaluationBudget(t *testing.T) {
	in := testInstance(t, 25)
	res, err := generational(in, GenerationalConfig{Seed: 9, PopSize: 64}, solver.Budget{MaxEvaluations: 500})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations > 500+64 {
		t.Fatalf("evaluations %d overshot the 500 budget", res.Evaluations)
	}
}

func TestGenerationalWithLocalSearch(t *testing.T) {
	in := testInstance(t, 26)
	plain, err := generational(in, GenerationalConfig{Seed: 11, PopSize: 64}, solver.Budget{MaxEvaluations: 3000})
	if err != nil {
		t.Fatal(err)
	}
	memetic, err := generational(in, GenerationalConfig{Seed: 11, PopSize: 64, LSIters: 10}, solver.Budget{MaxEvaluations: 3000})
	if err != nil {
		t.Fatal(err)
	}
	if memetic.BestFitness >= plain.BestFitness {
		t.Fatalf("H2LL-boosted GA (%v) not better than plain (%v) at equal evals", memetic.BestFitness, plain.BestFitness)
	}
}

// TestGenerationalCountsLocalSearchMoves checks that LSIters > 0 reports
// H2LL's improving moves in Result.LocalSearchMoves, and that a run
// without local search reports none.
func TestGenerationalCountsLocalSearchMoves(t *testing.T) {
	in := testInstance(t, 26)
	for _, iters := range []int{0, 10} {
		res, err := generational(in, GenerationalConfig{Seed: 11, PopSize: 64, LSIters: iters}, solver.Budget{MaxEvaluations: 3000})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.LocalSearchMoves > 0; got != (iters > 0) {
			t.Fatalf("LSIters %d: LocalSearchMoves %d", iters, res.LocalSearchMoves)
		}
	}
}

func TestGenerationalDiversityRecordingDecreases(t *testing.T) {
	in := testInstance(t, 27)
	res, err := generational(in, GenerationalConfig{Seed: 13, PopSize: 64, RecordDiversity: true, RecordConvergence: true}, solver.Budget{MaxGenerations: 25})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Diversity) != 25 || len(res.Convergence) != 25 {
		t.Fatalf("series lengths %d/%d", len(res.Diversity), len(res.Convergence))
	}
	if res.Diversity[24] >= res.Diversity[0] {
		t.Fatalf("diversity did not decrease: %v -> %v", res.Diversity[0], res.Diversity[24])
	}
}

func TestPopulationDiversityBounds(t *testing.T) {
	in := testInstance(t, 28)
	r := rng.New(1)
	pop := make([]*schedule.Schedule, 32)
	for i := range pop {
		pop[i] = schedule.NewRandom(in, r)
	}
	d := PopulationDiversity(pop)
	if d <= 0.5 || d >= 1 {
		t.Fatalf("random population diversity %v", d)
	}
	for i := 1; i < len(pop); i++ {
		pop[i].CopyFrom(pop[0])
	}
	if got := PopulationDiversity(pop); got != 0 {
		t.Fatalf("identical population diversity %v", got)
	}
	if PopulationDiversity(nil) != 0 {
		t.Fatal("empty population diversity nonzero")
	}
}
