// Benchmarks regenerating every table and figure of the paper's
// evaluation (§4), plus the ablation benches whose numbers the README's
// "Performance & evaluation engine" section reports.
// Budgets are scaled down so `go test -bench=.` finishes on a laptop;
// the cmd/experiments binary runs the same experiments at any scale.
package gridsched

import (
	"context"
	"fmt"
	"testing"
	"time"

	"gridsched/internal/operators"
	"gridsched/internal/rng"
	"gridsched/internal/schedule"
)

func benchInstance(b *testing.B, name string) *Instance {
	b.Helper()
	in, err := GenerateInstance(name)
	if err != nil {
		b.Fatal(err)
	}
	return in
}

// --- Table 1: the default parameterization (one full breeding pass) ---

// BenchmarkTable1DefaultConfig runs PA-CGA under the exact Table 1
// parameterization for a fixed evaluation budget; its throughput is the
// baseline cost of the paper's configuration.
func BenchmarkTable1DefaultConfig(b *testing.B) {
	in := benchInstance(b, "u_c_hihi.0")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := DefaultParams()
		p.Seed = uint64(i)
		if _, err := (PACGA{Params: p}).Solve(context.Background(), in, Budget{MaxEvaluations: 2000}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 4: speedup (evaluations per fixed wall time vs threads/LS) ---

// BenchmarkFig4SpeedupEvaluations reproduces Fig. 4's measurement: each
// sub-benchmark runs PA-CGA for a fixed wall budget and reports achieved
// evaluations as evals/op — compare across thread counts within one
// local-search series to read the speedup.
func BenchmarkFig4SpeedupEvaluations(b *testing.B) {
	in := benchInstance(b, "u_c_hihi.0")
	const wall = 25 * time.Millisecond
	for _, ls := range []int{0, 1, 5, 10} {
		for threads := 1; threads <= 4; threads++ {
			b.Run(fmt.Sprintf("ls=%d/threads=%d", ls, threads), func(b *testing.B) {
				var evals int64
				for i := 0; i < b.N; i++ {
					p := DefaultParams()
					p.Local = operators.H2LL{Iterations: ls}
					p.Threads = threads
					p.Seed = uint64(i)
					res, err := PACGA{Params: p}.Solve(context.Background(), in, Budget{MaxDuration: wall})
					if err != nil {
						b.Fatal(err)
					}
					evals += res.Evaluations
				}
				b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
			})
		}
	}
}

// --- Fig. 5: operator configurations (opx/tpx × 5/10 LS iterations) ---

// BenchmarkFig5OperatorConfigs runs each of the figure's four
// configurations at equal evaluation budgets and reports the achieved
// makespan, so the relative ranking (tpx/10 best) can be read directly.
func BenchmarkFig5OperatorConfigs(b *testing.B) {
	in := benchInstance(b, "u_i_hihi.0")
	configs := []struct {
		name string
		cx   operators.Crossover
		ls   int
	}{
		{"opx-5", operators.OnePoint{}, 5},
		{"tpx-5", operators.TwoPoint{}, 5},
		{"opx-10", operators.OnePoint{}, 10},
		{"tpx-10", operators.TwoPoint{}, 10},
	}
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			var sum float64
			for i := 0; i < b.N; i++ {
				p := DefaultParams()
				p.Crossover = cfg.cx
				p.Local = operators.H2LL{Iterations: cfg.ls}
				p.Seed = uint64(i)
				res, err := PACGA{Params: p}.Solve(context.Background(), in, Budget{MaxEvaluations: 4000})
				if err != nil {
					b.Fatal(err)
				}
				sum += res.BestFitness
			}
			b.ReportMetric(sum/float64(b.N), "makespan")
		})
	}
}

// --- Table 2: literature comparison ---

// BenchmarkTable2Comparison runs the four algorithm columns at equal
// evaluation budgets on one inconsistent high-heterogeneity instance
// (the class the paper highlights) and reports achieved makespans.
func BenchmarkTable2Comparison(b *testing.B) {
	in := benchInstance(b, "u_i_hihi.0")
	const budget = 4000
	report := func(b *testing.B, run func(seed uint64) (float64, error)) {
		var sum float64
		for i := 0; i < b.N; i++ {
			v, err := run(uint64(i))
			if err != nil {
				b.Fatal(err)
			}
			sum += v
		}
		b.ReportMetric(sum/float64(b.N), "makespan")
	}
	b.Run("struggle-ga", func(b *testing.B) {
		report(b, func(seed uint64) (float64, error) {
			res, err := StruggleSolver{Config: StruggleConfig{Seed: seed, SeedMinMin: true}}.Solve(context.Background(), in, Budget{MaxEvaluations: budget})
			if err != nil {
				return 0, err
			}
			return res.BestFitness, nil
		})
	})
	b.Run("cma-lth", func(b *testing.B) {
		report(b, func(seed uint64) (float64, error) {
			res, err := CMALTHSolver{Config: CMALTHConfig{Seed: seed, SeedMinMin: true}}.Solve(context.Background(), in, Budget{MaxEvaluations: budget})
			if err != nil {
				return 0, err
			}
			return res.BestFitness, nil
		})
	})
	b.Run("pa-cga-short", func(b *testing.B) {
		report(b, func(seed uint64) (float64, error) {
			p := DefaultParams()
			p.Seed = seed
			short := Budget{MaxEvaluations: budget / 9} // the paper's CPU-ratio column
			res, err := PACGA{Params: p}.Solve(context.Background(), in, short)
			if err != nil {
				return 0, err
			}
			return res.BestFitness, nil
		})
	})
	b.Run("pa-cga-full", func(b *testing.B) {
		report(b, func(seed uint64) (float64, error) {
			p := DefaultParams()
			p.Seed = seed
			res, err := PACGA{Params: p}.Solve(context.Background(), in, Budget{MaxEvaluations: budget})
			if err != nil {
				return 0, err
			}
			return res.BestFitness, nil
		})
	})
}

// --- Fig. 6: convergence per thread count ---

// BenchmarkFig6Convergence runs PA-CGA with convergence recording for
// each thread count and reports the final mean population makespan after
// a fixed generation budget.
func BenchmarkFig6Convergence(b *testing.B) {
	in := benchInstance(b, "u_c_hihi.0")
	for threads := 1; threads <= 4; threads++ {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			var final float64
			for i := 0; i < b.N; i++ {
				p := DefaultParams()
				p.Threads = threads
				p.Seed = uint64(i)
				p.RecordConvergence = true
				res, err := PACGA{Params: p}.Solve(context.Background(), in, Budget{MaxGenerations: 10})
				if err != nil {
					b.Fatal(err)
				}
				if n := len(res.Convergence); n > 0 {
					final += res.Convergence[n-1]
				}
			}
			b.ReportMetric(final/float64(b.N), "mean-makespan")
		})
	}
}

// --- Evaluation engine: incremental completion times ---

// benchEvalInstance generates a 512×M instance of the paper's hihi
// class for the evaluation-engine benchmarks.
func benchEvalInstance(b *testing.B, machines int) *Instance {
	b.Helper()
	cl := Class{Consistency: Inconsistent, TaskHet: HighHet, MachineHet: HighHet}
	in, err := Generate(GenSpec{Class: cl, Tasks: 512, Machines: machines, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	return in
}

// makespanScan is a plain reference loop: a full O(M) scan over the
// completion-time vector that tracks only the maximum value. Makespan
// is also an O(M) scan, a first-max one that also tracks the machine,
// so BenchmarkMakespan/M=x against BenchmarkMakespanScanRef/M=x reads
// off what that costs at each machine count.
func makespanScan(s *schedule.Schedule) float64 {
	max := 0.0
	for _, c := range s.CT {
		if c > max {
			max = c
		}
	}
	return max
}

var benchMachineCounts = []int{16, 64, 256}

// BenchmarkMakespan measures the O(M) first-max makespan scan.
func BenchmarkMakespan(b *testing.B) {
	for _, m := range benchMachineCounts {
		b.Run(fmt.Sprintf("M=%d", m), func(b *testing.B) {
			s := schedule.NewRandom(benchEvalInstance(b, m), rng.New(1))
			b.ReportAllocs()
			b.ResetTimer()
			var sink float64
			for i := 0; i < b.N; i++ {
				sink = s.Makespan()
			}
			_ = sink
		})
	}
}

// BenchmarkMakespanScanRef measures the plain reference scan on the same
// schedules; it exists purely as the comparator for BenchmarkMakespan.
func BenchmarkMakespanScanRef(b *testing.B) {
	for _, m := range benchMachineCounts {
		b.Run(fmt.Sprintf("M=%d", m), func(b *testing.B) {
			s := schedule.NewRandom(benchEvalInstance(b, m), rng.New(1))
			b.ReportAllocs()
			b.ResetTimer()
			var sink float64
			for i := 0; i < b.N; i++ {
				sink = makespanScan(s)
			}
			_ = sink
		})
	}
}

// BenchmarkMove measures the O(1) incremental move (two compensated CT
// updates), over a precomputed random move stream so RNG cost stays
// out of the loop.
func BenchmarkMove(b *testing.B) {
	for _, m := range benchMachineCounts {
		b.Run(fmt.Sprintf("M=%d", m), func(b *testing.B) {
			in := benchEvalInstance(b, m)
			r := rng.New(2)
			s := schedule.NewRandom(in, r)
			const stream = 1 << 12
			tasks := make([]int, stream)
			macs := make([]int, stream)
			for i := range tasks {
				tasks[i], macs[i] = r.Intn(in.T), r.Intn(in.M)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i & (stream - 1)
				s.Move(tasks[k], macs[k])
			}
		})
	}
}

// BenchmarkMoveMakespan measures the steady-state breeding hot pair —
// one move followed by one fitness read — which is the unit of work
// every metaheuristic in the registry repeats millions of times.
func BenchmarkMoveMakespan(b *testing.B) {
	for _, m := range benchMachineCounts {
		b.Run(fmt.Sprintf("M=%d", m), func(b *testing.B) {
			in := benchEvalInstance(b, m)
			r := rng.New(3)
			s := schedule.NewRandom(in, r)
			const stream = 1 << 12
			tasks := make([]int, stream)
			macs := make([]int, stream)
			for i := range tasks {
				tasks[i], macs[i] = r.Intn(in.T), r.Intn(in.M)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var sink float64
			for i := 0; i < b.N; i++ {
				k := i & (stream - 1)
				s.Move(tasks[k], macs[k])
				sink = s.Makespan()
			}
			_ = sink
		})
	}
}

// BenchmarkMoveMakespanScanRef is the same hot pair with the fitness
// read done by the plain reference scan.
func BenchmarkMoveMakespanScanRef(b *testing.B) {
	for _, m := range benchMachineCounts {
		b.Run(fmt.Sprintf("M=%d", m), func(b *testing.B) {
			in := benchEvalInstance(b, m)
			r := rng.New(3)
			s := schedule.NewRandom(in, r)
			const stream = 1 << 12
			tasks := make([]int, stream)
			macs := make([]int, stream)
			for i := range tasks {
				tasks[i], macs[i] = r.Intn(in.T), r.Intn(in.M)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var sink float64
			for i := 0; i < b.N; i++ {
				k := i & (stream - 1)
				s.Move(tasks[k], macs[k])
				sink = makespanScan(s)
			}
			_ = sink
		})
	}
}

// --- Ablation 3: incremental vs full fitness evaluation ---

func BenchmarkIncrementalEval(b *testing.B) {
	in := benchInstance(b, "u_c_hihi.0")
	s := schedule.NewRandom(in, rng.New(1))
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = s.Makespan()
	}
	_ = sink
}

func BenchmarkFullRecomputeEval(b *testing.B) {
	in := benchInstance(b, "u_c_hihi.0")
	s := schedule.NewRandom(in, rng.New(1))
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = s.MakespanFull()
	}
	_ = sink
}

// --- Ablation 4: H2LL candidate-set size ---

func BenchmarkH2LLCandidates(b *testing.B) {
	in := benchInstance(b, "u_c_hihi.0")
	for _, n := range []int{2, 4, 8, 15} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := rng.New(1)
			s := schedule.NewRandom(in, r)
			ls := operators.H2LL{Iterations: 10, Candidates: n}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ls.Apply(s, r)
			}
		})
	}
}

// --- Ablation 5: asynchronous vs synchronous cellular GA ---

func BenchmarkAsyncVsSync(b *testing.B) {
	in := benchInstance(b, "u_c_hihi.0")
	run := func(b *testing.B, sync bool) {
		var sum float64
		for i := 0; i < b.N; i++ {
			p := DefaultParams()
			p.Threads = 1
			p.Seed = uint64(i)
			var s Solver = PACGA{Params: p}
			if sync {
				s = SyncCGA{Params: p}
			}
			res, err := s.Solve(context.Background(), in, Budget{MaxEvaluations: 4000})
			if err != nil {
				b.Fatal(err)
			}
			sum += res.BestFitness
		}
		b.ReportMetric(sum/float64(b.N), "makespan")
	}
	b.Run("async", func(b *testing.B) { run(b, false) })
	b.Run("sync", func(b *testing.B) { run(b, true) })
}

// --- Future work (§5): bigger instances, more parallelism ---

// BenchmarkScalabilityLargeInstance exercises the paper's stated future
// work: the same algorithm on a benchmark 8× larger (4096 tasks × 64
// machines) with thread counts past the paper's 4. Compare evals/op
// across thread counts to see where the shared-memory design saturates.
func BenchmarkScalabilityLargeInstance(b *testing.B) {
	cl := Class{Consistency: Inconsistent, TaskHet: HighHet, MachineHet: HighHet}
	in, err := Generate(GenSpec{Class: cl, Tasks: 4096, Machines: 64, Seed: 99})
	if err != nil {
		b.Fatal(err)
	}
	for _, threads := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			var evals int64
			for i := 0; i < b.N; i++ {
				p := DefaultParams()
				p.Threads = threads
				p.Seed = uint64(i)
				res, err := PACGA{Params: p}.Solve(context.Background(), in, Budget{MaxDuration: 50 * time.Millisecond})
				if err != nil {
					b.Fatal(err)
				}
				evals += res.Evaluations
			}
			b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
		})
	}
}

// --- Grid simulation (dynamic environment substrate) ---

// BenchmarkSimulatedExecution replays a PA-CGA schedule on the
// discrete-event simulator under noise and failures: the cost of
// validating a plan against the dynamic environment.
func BenchmarkSimulatedExecution(b *testing.B) {
	in := benchInstance(b, "u_i_hihi.0")
	p := DefaultParams()
	p.Seed = 1
	res, err := PACGA{Params: p}.Solve(context.Background(), in, Budget{MaxEvaluations: 4000})
	if err != nil {
		b.Fatal(err)
	}
	mtbf := res.BestFitness / 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := SimConfig{Seed: uint64(i), NoiseSigma: 0.2, MTBF: mtbf, RepairTime: mtbf / 5}
		if _, err := Simulate(in, res.Best, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- End-to-end throughput on the benchmark suite ---

// BenchmarkPACGAAllInstances runs a short PA-CGA on each of the 12
// benchmark instances; regressions here flag performance problems in any
// layer of the stack.
func BenchmarkPACGAAllInstances(b *testing.B) {
	suite, err := BenchmarkSuite()
	if err != nil {
		b.Fatal(err)
	}
	for _, in := range suite {
		b.Run(in.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := DefaultParams()
				p.Seed = uint64(i)
				if _, err := (PACGA{Params: p}).Solve(context.Background(), in, Budget{MaxEvaluations: 2000}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Portfolio meta-solver overhead ---

// BenchmarkPortfolio measures the racing meta-solver's composition
// cost: "of-one" wraps tabu in a single-constituent portfolio (parent
// engine, child accounting, incumbent, lane machinery, warm restarts)
// and "direct-tabu" runs the same solver at the same budget without
// the wrapper. The pair should stay within ~5% of each other: the
// portfolio adds per-round bookkeeping, never per-evaluation work.
func BenchmarkPortfolio(b *testing.B) {
	in := benchInstance(b, "u_c_hihi.0")
	const budget = 4000
	run := func(b *testing.B, name string) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := Solve(context.Background(), name, in, SolveOptions{
				Budget: Budget{MaxEvaluations: budget},
				Seed:   uint64(i + 1),
			})
			if err != nil {
				b.Fatal(err)
			}
			if res.Best == nil {
				b.Fatal("no schedule")
			}
		}
	}
	b.Run("of-one", func(b *testing.B) { run(b, "portfolio:tabu") })
	b.Run("direct-tabu", func(b *testing.B) { run(b, "tabu") })
}

// BenchmarkPortfolioRace measures the full default race (pa-cga + tabu
// + h2ll sharing one incumbent) at a fixed evaluation budget — the
// end-to-end cost of the meta-solver the service exposes.
func BenchmarkPortfolioRace(b *testing.B) {
	in := benchInstance(b, "u_c_hihi.0")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Solve(context.Background(), "portfolio", in, SolveOptions{
			Budget: Budget{MaxEvaluations: 4000},
			Seed:   uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Best == nil {
			b.Fatal("no schedule")
		}
	}
}
