// Whole-solver throughput benchmarks: the benchguard-held numbers that
// keep the incremental and batched evaluation engine from regressing. Each sub-benchmark runs one registered solver family at a
// fixed evaluation budget, so ns/op is inversely proportional to
// evals/sec — benchguard holds ns/op, and the evals/s metric makes the
// throughput readable directly in bench output.
//
// Two shapes are measured per family: the paper's benchmark dimensions
// (512×16) and the large-instance shape (8192×256) where the task-
// ordered bulk loads and row-contiguous move scoring dominate the run
// time.
package gridsched

import (
	"context"
	"fmt"
	"testing"
)

// throughputShape is one instance geometry of the throughput suite with
// the evaluation budget each solver run spends on it. Budgets are sized
// so steady-state breeding dominates initialization (the GA families
// charge one eval per initial cell plus a one-time Min-min construction
// — at 8192×256 that means several times the 256-cell population), while
// keeping `-benchtime 1x` smoke runs cheap.
type throughputShape struct {
	tasks, machines int
	evals           int64
}

var throughputShapes = []throughputShape{
	{512, 16, 4000},
	{8192, 256, 6000},
}

// throughputInstance generates the inconsistent high-heterogeneity
// instance of the requested shape (the class the paper highlights).
func throughputInstance(b *testing.B, sh throughputShape) *Instance {
	b.Helper()
	cl := Class{Consistency: Inconsistent, TaskHet: HighHet, MachineHet: HighHet}
	in, err := Generate(GenSpec{Class: cl, Tasks: sh.tasks, Machines: sh.machines, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	return in
}

// BenchmarkSolverThroughput runs each solver family at each shape for a
// fixed evaluation budget. Compare evals/s across commits (or read
// ns/op, which benchguard holds) to see whole-solver throughput.
func BenchmarkSolverThroughput(b *testing.B) {
	for _, family := range []string{"pa-cga", "tabu", "h2ll"} {
		for _, sh := range throughputShapes {
			b.Run(fmt.Sprintf("%s/%dx%d", family, sh.tasks, sh.machines), func(b *testing.B) {
				in := throughputInstance(b, sh)
				b.ReportAllocs()
				b.ResetTimer()
				var evals int64
				for i := 0; i < b.N; i++ {
					res, err := Solve(context.Background(), family, in, SolveOptions{
						Budget: Budget{MaxEvaluations: sh.evals},
						Seed:   1,
					})
					if err != nil {
						b.Fatal(err)
					}
					if res.Best == nil {
						b.Fatal("no schedule")
					}
					evals += res.Evaluations
				}
				b.StopTimer()
				if secs := b.Elapsed().Seconds(); secs > 0 {
					b.ReportMetric(float64(evals)/secs, "evals/s")
				}
			})
		}
	}
}
