package core

import (
	"context"
	"testing"
	"time"

	"gridsched/internal/etc"
	"gridsched/internal/heuristics"
	"gridsched/internal/operators"
	"gridsched/internal/rng"
	"gridsched/internal/solver"
	"gridsched/internal/topology"
)

// rngForTest builds a deterministic RNG stream for direct population
// construction in white-box tests.
func rngForTest(seed uint64) *rng.Rand { return rng.New(seed) }

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

// smallParams returns a fast configuration on an 8x8 grid for unit
// testing; smallBudget is its usual evaluation bound.
func smallParams(threads int, seed uint64) Params {
	p := DefaultParams()
	p.GridW, p.GridH = 8, 8
	p.Threads = threads
	p.Seed = seed
	p.Local = operators.H2LL{Iterations: 5}
	return p
}

var smallBudget = solver.Budget{MaxEvaluations: 3000}

// run and runSync solve through the asynchronous and synchronous
// engines' Solve methods.
func run(in *etc.Instance, p Params, b solver.Budget) (*Result, error) {
	return PACGA{Params: p}.Solve(context.Background(), in, b)
}

func runSync(in *etc.Instance, p Params, b solver.Budget) (*Result, error) {
	return SyncCGA{Params: p}.Solve(context.Background(), in, b)
}

func TestDefaultParamsMatchTable1(t *testing.T) {
	p := DefaultParams()
	if p.GridW != 16 || p.GridH != 16 {
		t.Fatalf("population %dx%d, want 16x16", p.GridW, p.GridH)
	}
	if p.Neighborhood != topology.L5 {
		t.Fatal("neighborhood not L5")
	}
	if p.Selector.Name() != "best2" {
		t.Fatalf("selection %q, want best2", p.Selector.Name())
	}
	if p.CrossProb != 1.0 || p.MutProb != 1.0 || p.LocalProb != 1.0 {
		t.Fatal("operator probabilities must be 1.0 (Table 1)")
	}
	if p.Mutation.Name() != "move" {
		t.Fatalf("mutation %q, want move", p.Mutation.Name())
	}
	if p.Threads < 1 || p.Threads > 4 {
		t.Fatalf("threads %d outside the paper's 1..4 range", p.Threads)
	}
}

// TestPACGAReproducible pins Reproducible to the thread count Solve
// runs with: Threads 0 defaults to 3 racing workers.
func TestPACGAReproducible(t *testing.T) {
	for _, tc := range []struct {
		threads int
		want    bool
	}{{0, false}, {1, true}, {3, false}} {
		s := PACGA{Params: Params{Seed: 1, Threads: tc.threads}}
		if got := s.Reproducible(); got != tc.want {
			t.Errorf("Threads %d: Reproducible() = %v, want %v", tc.threads, got, tc.want)
		}
	}
}

func TestRunRequiresStopCondition(t *testing.T) {
	in := testInstance(t, 1)
	p := DefaultParams()
	if _, err := run(in, p, solver.Budget{}); err == nil {
		t.Fatal("Solve accepted an empty budget")
	}
}

func TestRunParamValidation(t *testing.T) {
	in := testInstance(t, 1)
	bad := []func(*Params){
		func(p *Params) { p.GridW = -1 },
		func(p *Params) { p.Threads = -2 },
		func(p *Params) { p.Threads = 10000 },
		func(p *Params) { p.CrossProb = 1.5 },
		func(p *Params) { p.MutProb = -0.1 },
		func(p *Params) { p.LocalProb = 2 },
	}
	for i, mutate := range bad {
		p := DefaultParams()
		mutate(&p)
		if _, err := run(in, p, solver.Budget{MaxEvaluations: 100}); err == nil {
			t.Fatalf("bad param set %d accepted", i)
		}
	}
}

func TestRunSingleThreadDeterministic(t *testing.T) {
	in := testInstance(t, 2)
	p := smallParams(1, 42)
	a, err := run(in, p, smallBudget)
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(in, p, smallBudget)
	if err != nil {
		t.Fatal(err)
	}
	if a.BestFitness != b.BestFitness {
		t.Fatalf("single-thread runs differ: %v vs %v", a.BestFitness, b.BestFitness)
	}
	if a.Best.HammingDistance(b.Best) != 0 {
		t.Fatal("single-thread runs found different best schedules")
	}
	if a.Evaluations != b.Evaluations {
		t.Fatalf("evaluation counts differ: %d vs %d", a.Evaluations, b.Evaluations)
	}
}

func TestRunRespectsEvaluationBudget(t *testing.T) {
	in := testInstance(t, 3)
	p := smallParams(1, 1)
	res, err := run(in, p, solver.Budget{MaxEvaluations: 500})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations < 500-64 || res.Evaluations > 500+64 {
		t.Fatalf("evaluations %d far from budget 500", res.Evaluations)
	}
}

func TestRunRespectsGenerationBudget(t *testing.T) {
	in := testInstance(t, 4)
	p := smallParams(2, 1)
	res, err := run(in, p, solver.Budget{MaxGenerations: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range res.PerThread {
		if g != 7 {
			t.Fatalf("worker %d ran %d generations, want 7", i, g)
		}
	}
	if res.Generations != 14 {
		t.Fatalf("total generations %d, want 14", res.Generations)
	}
}

func TestRunRespectsWallClock(t *testing.T) {
	in := testInstance(t, 5)
	p := smallParams(2, 1)
	start := time.Now()
	res, err := run(in, p, solver.Budget{MaxDuration: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	// The paper accepts overshoot of one generation; a generation here is
	// well under 100ms.
	if elapsed > 2*time.Second {
		t.Fatalf("run took %v for a 50ms budget", elapsed)
	}
	if res.Evaluations <= 64 {
		t.Fatal("run did no work within the wall budget")
	}
}

func TestRunImprovesOverMinMin(t *testing.T) {
	// The GA must beat its own Min-min seed given some budget — the
	// paper's whole point is improving over constructive heuristics.
	in := testInstance(t, 6)
	mm := heuristics.MinMin(in).Makespan()
	p := smallParams(1, 7)
	res, err := run(in, p, solver.Budget{MaxEvaluations: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestFitness >= mm {
		t.Fatalf("PA-CGA (%v) failed to improve on Min-min (%v)", res.BestFitness, mm)
	}
}

func TestRunBestMatchesSchedule(t *testing.T) {
	in := testInstance(t, 7)
	res, err := run(in, smallParams(2, 3), smallBudget)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Best.Validate(); err != nil {
		t.Fatalf("best schedule violates CT invariant: %v", err)
	}
	if !res.Best.Complete() {
		t.Fatal("best schedule incomplete")
	}
	if got := res.Best.Makespan(); got != res.BestFitness {
		t.Fatalf("BestFitness %v but schedule makespan %v", res.BestFitness, got)
	}
}

func TestRunMultiThreaded(t *testing.T) {
	in := testInstance(t, 8)
	res, err := run(in, smallParams(4, 11), smallBudget)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Best.Validate(); err != nil {
		t.Fatalf("corrupt best schedule: %v", err)
	}
}

func TestRunThreadsPartitionPopulation(t *testing.T) {
	in := testInstance(t, 9)
	p := smallParams(3, 13)
	res, err := run(in, p, smallBudget)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerThread) != 3 {
		t.Fatalf("PerThread has %d entries, want 3", len(res.PerThread))
	}
}

func TestRunWithoutMinMinSeed(t *testing.T) {
	in := testInstance(t, 10)
	p := smallParams(1, 17)
	p.DisableMinMinSeed = true
	res, err := run(in, p, smallBudget)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Best.Validate(); err != nil {
		t.Fatal(err)
	}
	// With the Min-min seed the very first population already contains
	// its fitness; without it the initial best should generally be worse.
	pSeeded := smallParams(1, 17)
	barelyPastInit := solver.Budget{MaxEvaluations: 70} // initial evaluation is 64
	seeded, err := run(in, pSeeded, barelyPastInit)
	if err != nil {
		t.Fatal(err)
	}
	unseeded, err := run(in, p, barelyPastInit)
	if err != nil {
		t.Fatal(err)
	}
	if seeded.BestFitness > unseeded.BestFitness {
		t.Fatalf("Min-min seeding made the initial population worse: %v vs %v",
			seeded.BestFitness, unseeded.BestFitness)
	}
}

func TestRunConvergenceRecording(t *testing.T) {
	in := testInstance(t, 11)
	p := smallParams(2, 19)
	p.RecordConvergence = true
	res, err := run(in, p, solver.Budget{MaxGenerations: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Convergence) != 10 {
		t.Fatalf("convergence has %d points, want 10", len(res.Convergence))
	}
	// Replace-if-better means the population mean must never increase.
	for g := 1; g < len(res.Convergence); g++ {
		if res.Convergence[g] > res.Convergence[g-1]+1e-6 {
			t.Fatalf("population mean increased at generation %d: %v -> %v",
				g, res.Convergence[g-1], res.Convergence[g])
		}
	}
}

func TestRunMoreEvaluationsIsNotWorse(t *testing.T) {
	in := testInstance(t, 12)
	short := smallParams(1, 23)
	long := smallParams(1, 23)
	a, err := run(in, short, solver.Budget{MaxEvaluations: 500})
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(in, long, solver.Budget{MaxEvaluations: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if b.BestFitness > a.BestFitness {
		t.Fatalf("longer run found worse solution: %v vs %v", b.BestFitness, a.BestFitness)
	}
}

func TestRunLocalSearchMovesCounted(t *testing.T) {
	in := testInstance(t, 13)
	p := smallParams(1, 29)
	res, err := run(in, p, smallBudget)
	if err != nil {
		t.Fatal(err)
	}
	if res.LocalSearchMoves == 0 {
		t.Fatal("H2LL reported zero improving moves over an entire run")
	}
	p.Local = operators.H2LL{Iterations: 0}
	res0, err := run(in, p, smallBudget)
	if err != nil {
		t.Fatal(err)
	}
	if res0.LocalSearchMoves != 0 {
		t.Fatal("0-iteration H2LL reported moves")
	}
}

func TestRunAllCrossovers(t *testing.T) {
	in := testInstance(t, 14)
	for _, cx := range []operators.Crossover{operators.OnePoint{}, operators.TwoPoint{}, operators.Uniform{}} {
		p := smallParams(2, 31)
		p.Crossover = cx
		res, err := run(in, p, smallBudget)
		if err != nil {
			t.Fatalf("%s: %v", cx.Name(), err)
		}
		if err := res.Best.Validate(); err != nil {
			t.Fatalf("%s: %v", cx.Name(), err)
		}
	}
}

// --- Synchronous variant ---

func TestRunSyncBasic(t *testing.T) {
	in := testInstance(t, 16)
	p := smallParams(1, 41)
	res, err := runSync(in, p, smallBudget)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Best.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Evaluations == 0 || res.Generations == 0 {
		t.Fatal("sync run did no work")
	}
}

func TestRunSyncDeterministic(t *testing.T) {
	in := testInstance(t, 17)
	p := smallParams(1, 43)
	a, _ := runSync(in, p, smallBudget)
	b, _ := runSync(in, p, smallBudget)
	if a.BestFitness != b.BestFitness || a.Evaluations != b.Evaluations {
		t.Fatal("sync runs with identical seed differ")
	}
}

func TestRunSyncGenerationBudget(t *testing.T) {
	in := testInstance(t, 18)
	p := smallParams(1, 47)
	res, err := runSync(in, p, solver.Budget{MaxGenerations: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Generations != 5 {
		t.Fatalf("sync ran %d generations, want 5", res.Generations)
	}
	// 64 initial + 5 generations of 64 breedings.
	if res.Evaluations != 64+5*64 {
		t.Fatalf("sync evaluations %d, want %d", res.Evaluations, 64+5*64)
	}
}

func TestRunSyncConvergenceMonotone(t *testing.T) {
	in := testInstance(t, 19)
	p := smallParams(1, 53)
	p.RecordConvergence = true
	res, err := runSync(in, p, solver.Budget{MaxGenerations: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Convergence) != 8 {
		t.Fatalf("convergence %d points, want 8", len(res.Convergence))
	}
	for g := 1; g < len(res.Convergence); g++ {
		if res.Convergence[g] > res.Convergence[g-1]+1e-6 {
			t.Fatal("sync population mean increased under replace-if-better")
		}
	}
}

func TestAsyncConvergesFasterThanSyncOnGenerations(t *testing.T) {
	// The literature result the paper cites (§3.1): asynchronous updates
	// converge the population faster than synchronous ones at equal
	// generation counts. Compare best fitness after the same number of
	// generations, averaged over seeds to avoid flakiness.
	in := testInstance(t, 20)
	var asyncSum, syncSum float64
	const seeds = 5
	for s := uint64(0); s < seeds; s++ {
		p := smallParams(1, 100+s)
		a, err := run(in, p, solver.Budget{MaxGenerations: 30})
		if err != nil {
			t.Fatal(err)
		}
		b, err := runSync(in, p, solver.Budget{MaxGenerations: 30})
		if err != nil {
			t.Fatal(err)
		}
		asyncSum += a.BestFitness
		syncSum += b.BestFitness
	}
	if asyncSum > syncSum*1.05 {
		t.Fatalf("async (%v) much worse than sync (%v) at equal generations", asyncSum/seeds, syncSum/seeds)
	}
}

func TestAggregateSeriesWeighting(t *testing.T) {
	blocks := []topology.Block{{Start: 0, End: 3}, {Start: 3, End: 4}}
	ws := []*worker{
		{conv: []float64{10, 8}},
		{conv: []float64{20}},
	}
	get := func(w *worker) []float64 { return w.conv }
	got := aggregateSeries(ws, blocks, get)
	if len(got) != 2 {
		t.Fatalf("series length %d", len(got))
	}
	// g0: (10*3 + 20*1)/4 = 12.5; g1: worker1 finished, reuse 20: (8*3+20)/4 = 11.
	if got[0] != 12.5 || got[1] != 11 {
		t.Fatalf("aggregate = %v, want [12.5 11]", got)
	}
	if aggregateSeries([]*worker{{}, {}}, blocks, get) != nil {
		t.Fatal("empty convergence should aggregate to nil")
	}
}

func TestRunDiversityRecording(t *testing.T) {
	in := testInstance(t, 25)
	p := smallParams(2, 61)
	p.RecordDiversity = true
	res, err := run(in, p, solver.Budget{MaxGenerations: 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Diversity) != 12 {
		t.Fatalf("diversity has %d points, want 12", len(res.Diversity))
	}
	for g, d := range res.Diversity {
		if d < 0 || d > 1 {
			t.Fatalf("diversity[%d] = %v outside [0,1]", g, d)
		}
	}
	// The first sample is taken after one full generation, so selection
	// has already eroded the random population's near-uniform diversity
	// (bound 1 - 1/machines ≈ 0.94); it must still be clearly nonzero,
	// and must keep decreasing as the population converges.
	if res.Diversity[0] < 0.1 {
		t.Fatalf("diversity after one generation %v implausibly low", res.Diversity[0])
	}
	if last := res.Diversity[len(res.Diversity)-1]; last >= res.Diversity[0] {
		t.Fatalf("diversity did not decrease: %v -> %v", res.Diversity[0], last)
	}
}

func TestRunSyncDiversityRecording(t *testing.T) {
	in := testInstance(t, 26)
	p := smallParams(1, 67)
	p.RecordDiversity = true
	res, err := runSync(in, p, solver.Budget{MaxGenerations: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Diversity) != 6 {
		t.Fatalf("diversity points %d", len(res.Diversity))
	}
	if res.Diversity[5] >= res.Diversity[0] {
		t.Fatal("sync diversity did not decrease")
	}
}

func TestBlockDiversityBounds(t *testing.T) {
	in := testInstance(t, 27)
	pop := newPopulation(in, 16, rngForTest(1), false, nil)
	_, d := pop.blockDiversity(0, 16, nil)
	if d <= 0 || d >= 1 {
		t.Fatalf("random population diversity %v", d)
	}
	// Make all individuals identical: diversity 0.
	for i := 1; i < 16; i++ {
		pop.sched(i).CopyFrom(pop.sched(0))
		pop.fit[i] = pop.fit[0]
	}
	if _, d := pop.blockDiversity(0, 16, nil); d != 0 {
		t.Fatalf("identical population diversity %v, want 0", d)
	}
	if _, d := pop.blockDiversity(3, 3, nil); d != 0 {
		t.Fatalf("empty block diversity %v", d)
	}
}

// TestSyncPartialGenerationRecorded pins the evaluation-budget
// boundary at MaxEvals = popSize + k, k < popSize: the synchronous
// model installs the k offspring bred before the budget tripped, and
// that partial generation must be visible in Generations, Convergence
// and Diversity — records that diverge from what the population holds
// would poison every downstream convergence analysis.
func TestSyncPartialGenerationRecorded(t *testing.T) {
	in := testInstance(t, 5)
	base := smallParams(1, 9)
	base.RecordConvergence = true
	base.RecordDiversity = true
	popSize := int64(base.GridW * base.GridH)

	for _, tc := range []struct {
		name      string
		extra     int64 // evaluations past the initial population
		wantGens  int64
		wantEvals int64
	}{
		{"exhausted-at-init", 0, 0, popSize},
		{"partial-first-sweep", 10, 1, popSize + 10},
		{"full-plus-partial", popSize + 5, 2, 2*popSize + 5},
		{"exactly-one-sweep", popSize, 1, 2 * popSize},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := base
			res, err := runSync(in, p, solver.Budget{MaxEvaluations: popSize + tc.extra})
			if err != nil {
				t.Fatal(err)
			}
			if res.Evaluations != tc.wantEvals {
				t.Fatalf("Evaluations = %d, want %d", res.Evaluations, tc.wantEvals)
			}
			if res.Generations != tc.wantGens {
				t.Fatalf("Generations = %d, want %d", res.Generations, tc.wantGens)
			}
			if got := int64(len(res.Convergence)); got != tc.wantGens {
				t.Fatalf("len(Convergence) = %d, want Generations %d", got, tc.wantGens)
			}
			if got := int64(len(res.Diversity)); got != tc.wantGens {
				t.Fatalf("len(Diversity) = %d, want Generations %d", got, tc.wantGens)
			}
			if len(res.PerThread) != 1 || res.PerThread[0] != tc.wantGens {
				t.Fatalf("PerThread = %v, want [%d]", res.PerThread, tc.wantGens)
			}
		})
	}
}
