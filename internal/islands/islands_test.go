package islands

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"gridsched/internal/etc"
	"gridsched/internal/heuristics"
	"gridsched/internal/solver"
)

// run solves through the island model's Solve method.
func run(in *etc.Instance, cfg Config, b solver.Budget) (*solver.Result, error) {
	return Solver{Config: cfg}.Solve(context.Background(), in, b)
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

func TestRunBasic(t *testing.T) {
	in := testInstance(t, 1)
	res, err := run(in, Config{Seed: 1, SeedMinMin: true}, solver.Budget{MaxGenerations: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Best.Complete() {
		t.Fatal("incomplete best")
	}
	if err := res.Best.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Best.Makespan() != res.BestFitness {
		t.Fatal("fitness/schedule mismatch")
	}
	if len(res.PerThread) != 4 {
		t.Fatalf("PerThread %v, want 4 islands", res.PerThread)
	}
}

func TestRunGenerationBudgetPerIsland(t *testing.T) {
	in := testInstance(t, 2)
	res, err := run(in, Config{Seed: 3, Islands: 3}, solver.Budget{MaxGenerations: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range res.PerThread {
		if g != 7 {
			t.Fatalf("island %d ran %d generations, want 7", i, g)
		}
	}
	// 3 islands × 64 cells initial + 3 × 7 × 64 breedings.
	want := int64(3*64 + 3*7*64)
	if res.Evaluations != want {
		t.Fatalf("evaluations %d, want %d", res.Evaluations, want)
	}
}

func TestRunEvaluationBudget(t *testing.T) {
	in := testInstance(t, 3)
	res, err := run(in, Config{Seed: 5}, solver.Budget{MaxEvaluations: 2000})
	if err != nil {
		t.Fatal(err)
	}
	// Budget checked per breeding step; overshoot bounded by islands-1.
	if res.Evaluations > 2000+4 {
		t.Fatalf("evaluations %d overshot 2000", res.Evaluations)
	}
}

func TestRunValidation(t *testing.T) {
	in := testInstance(t, 4)
	if _, err := run(in, Config{Seed: 1}, solver.Budget{}); err == nil {
		t.Fatal("empty budget accepted")
	}
	cases := []Config{
		{Seed: 1, Islands: -1},         // bad island count
		{Seed: 1, GridW: -1, GridH: 2}, // bad grid
		{Seed: 1, Migrants: 1000},      // too many migrants
		{Seed: 1, CrossProb: 2},        // bad probability
		{Seed: 1, MigrationEvery: -1},  // negative interval
	}
	for i, cfg := range cases {
		if _, err := run(in, cfg, solver.Budget{MaxGenerations: 1}); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestRunImprovesWithBudget(t *testing.T) {
	in := testInstance(t, 5)
	short, err := run(in, Config{Seed: 7, SeedMinMin: true}, solver.Budget{MaxGenerations: 1})
	if err != nil {
		t.Fatal(err)
	}
	long, err := run(in, Config{Seed: 7, SeedMinMin: true}, solver.Budget{MaxGenerations: 40})
	if err != nil {
		t.Fatal(err)
	}
	if long.BestFitness > short.BestFitness {
		t.Fatalf("more generations made things worse: %v -> %v", short.BestFitness, long.BestFitness)
	}
}

func TestRunBeatsMinMinSeed(t *testing.T) {
	// The island engine is timing-dependent — migrant arrival order
	// varies run to run (Solver.Reproducible reports false) — so one
	// seed's 40 generations may or may not find an improvement when
	// instrumentation skews goroutine scheduling (-race). Elite
	// preservation is deterministic, so "never worse than the Min-min
	// seed" must hold on every run; strict improvement is asserted
	// across a few independent seeds.
	in := testInstance(t, 6)
	mm := heuristics.MinMin(in).Makespan()
	improved := false
	for seed := uint64(9); seed < 12 && !improved; seed++ {
		res, err := run(in, Config{Seed: seed, SeedMinMin: true}, solver.Budget{MaxGenerations: 60})
		if err != nil {
			t.Fatal(err)
		}
		if res.BestFitness > mm {
			t.Fatalf("islands with seed %d (%v) lost its Min-min elite (%v)", seed, res.BestFitness, mm)
		}
		improved = res.BestFitness < mm
	}
	if !improved {
		t.Fatalf("islands never improved on Min-min (%v) across 3 seeds", mm)
	}
}

// TestMigrationSpreadsEliteAcrossIslands checks that migration does not
// hurt. With migration, the Min-min-derived elite of island 0 should
// reach the other islands; without, islands evolve blind. The test
// compares the overall best with migration on and off over the same
// budget, per seed, and bounds the mean with/without ratio over 20
// seeds by 1.05 (allow equality, forbid a meaningful regression). One
// seed decides nothing: single-seed ratios swing by about ±6% either
// way, and the island engine is timing-dependent.
func TestMigrationSpreadsEliteAcrossIslands(t *testing.T) {
	in := testInstance(t, 7)
	const firstSeed, seeds = 11, 20
	sum := 0.0
	for seed := uint64(firstSeed); seed < firstSeed+seeds; seed++ {
		with, err := run(in, Config{Seed: seed, MigrationEvery: 5, SeedMinMin: true}, solver.Budget{MaxGenerations: 40})
		if err != nil {
			t.Fatal(err)
		}
		// MigrationEvery beyond MaxGenerations disables migration entirely.
		without, err := run(in, Config{Seed: seed, MigrationEvery: 1000, SeedMinMin: true}, solver.Budget{MaxGenerations: 40})
		if err != nil {
			t.Fatal(err)
		}
		sum += with.BestFitness / without.BestFitness
	}
	if mean := sum / seeds; mean > 1.05 {
		t.Fatalf("migration made results >5%% worse on average: mean with/without ratio %.4f over seeds %d–%d",
			mean, firstSeed, firstSeed+seeds-1)
	}
}

func TestSingleIsland(t *testing.T) {
	// One island degenerates to a plain asynchronous cellular GA; the
	// ring points at itself and must not deadlock.
	in := testInstance(t, 8)
	res, err := run(in, Config{Seed: 13, Islands: 1, MigrationEvery: 3}, solver.Budget{MaxGenerations: 15})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Best.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestManySmallIslands(t *testing.T) {
	in := testInstance(t, 9)
	res, err := run(in, Config{Seed: 15, Islands: 8, GridW: 4, GridH: 4, MigrationEvery: 2, Migrants: 2}, solver.Budget{MaxGenerations: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerThread) != 8 {
		t.Fatalf("%d islands reported", len(res.PerThread))
	}
	if err := res.Best.Validate(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkIslands4x64(b *testing.B) {
	in := testInstance(b, 1)
	for i := 0; i < b.N; i++ {
		cfg := Config{Seed: uint64(i), SeedMinMin: true}
		if _, err := run(in, cfg, solver.Budget{MaxEvaluations: 4000}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRunCountsLocalSearchMoves checks that the islands report the
// improving H2LL moves their offspring made: the default configuration
// runs H2LL on every offspring, so a real run cannot report none.
func TestRunCountsLocalSearchMoves(t *testing.T) {
	in := testInstance(t, 12)
	res, err := run(in, Config{Seed: 5}, solver.Budget{MaxEvaluations: 3000})
	if err != nil {
		t.Fatal(err)
	}
	if res.LocalSearchMoves <= 0 {
		t.Fatalf("LocalSearchMoves %d after %d evaluations with H2LL on every offspring", res.LocalSearchMoves, res.Evaluations)
	}
}

// TestSingleIslandGoldenFingerprint pins the exact trajectory of a
// one-island run (Table 1 operators, 5000 evaluations): the bits of the
// best makespan, the number of H2LL moves and an FNV-1a hash of the
// best assignment. One island runs on one goroutine, so the evaluation
// budget makes it deterministic. A speed-up of the breeding step must
// leave these rows as they are; a deliberate behaviour change
// re-records them.
func TestSingleIslandGoldenFingerprint(t *testing.T) {
	golden := []struct {
		instance      string
		makespanBits  uint64
		lsMoves       int64
		assignmentFNV uint64
	}{
		{"u_c_hihi.0@64x8", 0x41445e3f309edfab, 14802, 0x3049b2bb67aabdc1},
		{"u_i_hilo.0", 0x40f2007eb0568b85, 27347, 0x5ae6637c5bf640c6},
	}
	for _, g := range golden {
		t.Run(g.instance, func(t *testing.T) {
			in, err := etc.GenerateByName(g.instance)
			if err != nil {
				t.Fatal(err)
			}
			res, err := run(in, Config{Seed: 3, Islands: 1, MigrationEvery: 4, SeedMinMin: true}, solver.Budget{MaxEvaluations: 5000})
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			var b [8]byte
			for _, m := range res.Best.S {
				binary.LittleEndian.PutUint64(b[:], uint64(int64(m)))
				h.Write(b[:])
			}
			bits, sum := math.Float64bits(res.BestFitness), h.Sum64()
			if bits != g.makespanBits || res.LocalSearchMoves != g.lsMoves || sum != g.assignmentFNV {
				t.Errorf("fingerprint {%q, %#x, %d, %#x}, want {%#x, %d, %#x}",
					g.instance, bits, res.LocalSearchMoves, sum, g.makespanBits, g.lsMoves, g.assignmentFNV)
			}
		})
	}
}
