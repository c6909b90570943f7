// Package experiments reproduces the paper's evaluation (§4): Fig. 4
// (evaluation-based speedup vs threads and local-search iterations),
// Fig. 5 (recombination × local-search box plots over the 12 benchmark
// instances), Table 2 (mean makespan vs the literature baselines), and
// Fig. 6 (population convergence per thread count). Each experiment has
// one entry point returning structured rows plus text renderers, so the
// cmd/experiments binary and the root bench harness share one
// implementation.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"gridsched/internal/core"
	"gridsched/internal/etc"
	"gridsched/internal/operators"
	"gridsched/internal/solver"
	"gridsched/internal/stats"
	"gridsched/internal/textplot"

	// Register the comparator solvers Table 2 resolves by name.
	_ "gridsched/internal/baselines"
)

// Scale sets how faithfully an experiment mirrors the paper's budgets.
// The paper runs 100 replications of 90-second runs on a 2007 Xeon; a
// laptop-scale reproduction shrinks both, which preserves every
// qualitative shape (the paper's own speedup currency is evaluations,
// not seconds).
type Scale struct {
	// Runs is the number of replications per configuration (paper: 100).
	Runs int
	// WallTime is the per-run wall-clock budget (paper: 90 s). When
	// zero, Evaluations is used instead, making runs deterministic.
	WallTime time.Duration
	// Evaluations is the per-run evaluation budget used when WallTime
	// is zero.
	Evaluations int64
	// ShortDivisor scales the budget for Table 2's "PA-CGA 10 sec"
	// column; the paper divides its 90 s by the TSCP-measured CPU ratio
	// of 9 to compare fairly against the older AMD K6 results.
	ShortDivisor int
	// Threads used for Fig. 5 and Table 2 (paper: 3, the Fig. 4 winner).
	Threads int
	// BaseSeed decorrelates replications; replication i uses BaseSeed+i.
	BaseSeed uint64
}

// CIScale returns a configuration small enough for tests and continuous
// integration: deterministic evaluation budgets, few replications.
func CIScale() Scale {
	return Scale{Runs: 5, Evaluations: 8000, ShortDivisor: 9, Threads: 3, BaseSeed: 1}
}

// PaperScale returns the paper's full budgets (100 × 90 s runs). A full
// Fig. 5 at this scale is 4 configs × 12 instances × 100 runs × 90 s —
// days of compute; use it selectively.
func PaperScale() Scale {
	return Scale{Runs: 100, WallTime: 90 * time.Second, ShortDivisor: 9, Threads: 3, BaseSeed: 1}
}

func (sc Scale) withDefaults() Scale {
	if sc.Runs <= 0 {
		sc.Runs = 5
	}
	if sc.WallTime <= 0 && sc.Evaluations <= 0 {
		sc.Evaluations = 8000
	}
	if sc.ShortDivisor <= 0 {
		sc.ShortDivisor = 9
	}
	if sc.Threads <= 0 {
		sc.Threads = 3
	}
	return sc
}

// apply returns the scale's per-run budget: the wall-clock budget
// when set, otherwise the evaluation budget (a wall-clock scale must
// not be silently truncated by a leftover evaluation count).
func (sc Scale) apply() solver.Budget {
	if sc.WallTime > 0 {
		return solver.Budget{MaxDuration: sc.WallTime}
	}
	return solver.Budget{MaxEvaluations: sc.Evaluations}
}

// --- Table 1 ---

// Table1 renders the parameterization table: the defaults of
// core.DefaultParams annotated with the paper's values.
func Table1() string {
	p := core.DefaultParams()
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: Parameterization of PA-CGA\n")
	rows := [][2]string{
		{"Population", fmt.Sprintf("%dx%d", p.GridW, p.GridH)},
		{"Population initialization", "Min-min (1 ind), rest random"},
		{"Cell update policy", "fixed line sweep per block"},
		{"Neighborhood", p.Neighborhood.String()},
		{"Selection", p.Selector.Name()},
		{"Recombination", fmt.Sprintf("%s, p_comb = %.1f", p.Crossover.Name(), p.CrossProb)},
		{"Mutation", fmt.Sprintf("%s, p_mut = %.1f", p.Mutation.Name(), p.MutProb)},
		{"Local search", fmt.Sprintf("%s, p_ser = %.1f", p.Local.Name(), p.LocalProb)},
		{"Replacement", "if-better"},
		{"Stopping criterion", "wall time / generations / evaluations"},
		{"Number of threads", fmt.Sprintf("%d (paper sweeps 1..4)", p.Threads)},
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-28s %s\n", r[0], r[1])
	}
	return b.String()
}

// --- Fig. 4: speedup ---

// Fig4Row is one point of Fig. 4: the mean evaluations achieved at a
// thread count and H2LL iteration budget, and the speedup relative to
// one thread of the same series (Eq. 5, in percent).
type Fig4Row struct {
	Threads    int
	LSIters    int
	MeanEvals  float64
	SpeedupPct float64
}

// Fig4LSIterations are the local-search series of Fig. 4.
var Fig4LSIterations = []int{0, 1, 5, 10}

// Fig4MaxThreads is the paper's thread sweep bound.
const Fig4MaxThreads = 4

// Fig4 measures evaluation throughput for threads 1..4 and H2LL
// iteration budgets {0, 1, 5, 10} on one instance. The scale must use a
// wall-clock budget: speedup compares work done in equal time, so an
// evaluation budget would be circular. Replications run sequentially so
// the measured run has the machine to itself. Cancelling ctx stops the
// current run through the budget engine and aborts the experiment with
// the context's error.
func Fig4(ctx context.Context, inst *etc.Instance, sc Scale) ([]Fig4Row, error) {
	sc = sc.withDefaults()
	if sc.WallTime <= 0 {
		return nil, fmt.Errorf("experiments: Fig4 needs a wall-clock budget (speedup is evaluations per unit time)")
	}
	var rows []Fig4Row
	base := map[int]float64{} // ls iters -> mean evals at 1 thread
	for _, ls := range Fig4LSIterations {
		for threads := 1; threads <= Fig4MaxThreads; threads++ {
			evals := make([]float64, 0, sc.Runs)
			for run := 0; run < sc.Runs; run++ {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				p := core.DefaultParams()
				p.Local = operators.H2LL{Iterations: ls}
				p.Threads = threads
				p.Seed = sc.BaseSeed + uint64(run)
				res, err := core.PACGA{Params: p}.Solve(ctx, inst, sc.apply())
				if err != nil {
					return nil, err
				}
				evals = append(evals, float64(res.Evaluations))
			}
			mean := stats.Mean(evals)
			if threads == 1 {
				base[ls] = mean
			}
			rows = append(rows, Fig4Row{
				Threads:    threads,
				LSIters:    ls,
				MeanEvals:  mean,
				SpeedupPct: stats.Speedup(mean, base[ls]),
			})
		}
	}
	return rows, nil
}

// RenderFig4 renders the rows as the Fig. 4 line chart plus a table.
func RenderFig4(rows []Fig4Row) string {
	var b strings.Builder
	b.WriteString("Fig. 4: Speedup of the algorithm (evaluations vs 1 thread, %)\n\n")
	bySeries := map[int][]Fig4Row{}
	for _, r := range rows {
		bySeries[r.LSIters] = append(bySeries[r.LSIters], r)
	}
	var series []textplot.Series
	var iters []int
	for ls := range bySeries {
		iters = append(iters, ls)
	}
	sort.Ints(iters)
	for _, ls := range iters {
		rs := bySeries[ls]
		sort.Slice(rs, func(i, j int) bool { return rs[i].Threads < rs[j].Threads })
		s := textplot.Series{Name: fmt.Sprintf("%d iteration(s)", ls)}
		for _, r := range rs {
			s.X = append(s.X, float64(r.Threads))
			s.Y = append(s.Y, r.SpeedupPct)
		}
		series = append(series, s)
	}
	b.WriteString(textplot.LineChart("", series, 64, 18))
	b.WriteString("\n  threads  ls-iters  mean-evals  speedup%\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %7d  %8d  %10.0f  %7.1f\n", r.Threads, r.LSIters, r.MeanEvals, r.SpeedupPct)
	}
	return b.String()
}

// --- Fig. 5: operator configurations ---

// Fig5Config names one of the four compared configurations.
type Fig5Config struct {
	Crossover operators.Crossover
	LSIters   int
}

// Label renders the paper's axis naming, e.g. "tpx/10".
func (c Fig5Config) Label() string {
	return fmt.Sprintf("%s/%d", c.Crossover.Name(), c.LSIters)
}

// Fig5Configs returns the paper's four configurations in figure order.
func Fig5Configs() []Fig5Config {
	return []Fig5Config{
		{operators.OnePoint{}, 5},
		{operators.TwoPoint{}, 5},
		{operators.OnePoint{}, 10},
		{operators.TwoPoint{}, 10},
	}
}

// Fig5Cell holds the replicated makespans of one configuration on one
// instance together with the box-plot summary the figure draws.
type Fig5Cell struct {
	Instance  string
	Config    string
	Makespans []float64
	Box       stats.BoxPlot
}

// Fig5 runs the four configurations on each instance at the scale's
// thread count and budget; see Fig4 for the cancellation contract.
func Fig5(ctx context.Context, instances []*etc.Instance, sc Scale) ([]Fig5Cell, error) {
	sc = sc.withDefaults()
	var cells []Fig5Cell
	for _, inst := range instances {
		for _, cfg := range Fig5Configs() {
			ms := make([]float64, 0, sc.Runs)
			for run := 0; run < sc.Runs; run++ {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				p := core.DefaultParams()
				p.Crossover = cfg.Crossover
				p.Local = operators.H2LL{Iterations: cfg.LSIters}
				p.Threads = sc.Threads
				p.Seed = sc.BaseSeed + uint64(run)
				res, err := core.PACGA{Params: p}.Solve(ctx, inst, sc.apply())
				if err != nil {
					return nil, err
				}
				ms = append(ms, res.BestFitness)
			}
			box, err := stats.NewBoxPlot(ms)
			if err != nil {
				return nil, err
			}
			cells = append(cells, Fig5Cell{
				Instance:  inst.Name,
				Config:    cfg.Label(),
				Makespans: ms,
				Box:       box,
			})
		}
	}
	return cells, nil
}

// Fig5Significance reports, per instance, whether tpx/10 is
// significantly better than opx/5 at the 5 % level — the paper's
// statistically backed claim in §4.2.
func Fig5Significance(cells []Fig5Cell) (map[string]bool, error) {
	byInstance := map[string]map[string][]float64{}
	for _, c := range cells {
		if byInstance[c.Instance] == nil {
			byInstance[c.Instance] = map[string][]float64{}
		}
		byInstance[c.Instance][c.Config] = c.Makespans
	}
	out := map[string]bool{}
	for inst, cfgs := range byInstance {
		tpx10, ok1 := cfgs["tpx/10"]
		opx5, ok2 := cfgs["opx/5"]
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("experiments: instance %s missing tpx/10 or opx/5 samples", inst)
		}
		less, err := stats.SignificantlyLess(tpx10, opx5, 0.05)
		if err != nil {
			return nil, err
		}
		out[inst] = less
	}
	return out, nil
}

// RenderFig5 renders per-instance notched box plots plus the
// significance summary.
func RenderFig5(cells []Fig5Cell) string {
	var b strings.Builder
	b.WriteString("Fig. 5: Comparison of recombination operators and local search iterations\n")
	byInstance := map[string][]Fig5Cell{}
	var order []string
	for _, c := range cells {
		if len(byInstance[c.Instance]) == 0 {
			order = append(order, c.Instance)
		}
		byInstance[c.Instance] = append(byInstance[c.Instance], c)
	}
	for _, inst := range order {
		var boxes []textplot.Box
		for _, c := range byInstance[inst] {
			boxes = append(boxes, textplot.Box{Label: c.Config, Plot: c.Box})
		}
		b.WriteString("\n")
		b.WriteString(textplot.BoxPlots(fmt.Sprintf("Instance %s (average makespan, %d runs)", inst, boxes[0].Plot.N), boxes, 56))
	}
	if sig, err := Fig5Significance(cells); err == nil {
		b.WriteString("\nSignificance (rank-sum, alpha=0.05): tpx/10 < opx/5 on: ")
		var yes []string
		for _, inst := range order {
			if sig[inst] {
				yes = append(yes, inst)
			}
		}
		if len(yes) == 0 {
			b.WriteString("(none at this scale)")
		} else {
			b.WriteString(strings.Join(yes, ", "))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// --- Table 2: literature comparison ---

// Table2Comparators are the registry names of the default literature
// comparator columns, in display order. Table2 resolves them through
// solver.Lookup, so adding a comparator means registering a solver and
// appending its name here (or passing a custom list to Table2) — not
// growing a switch.
var Table2Comparators = []string{"struggle", "cma-lth"}

// Table2Cell is one comparator column of a row: the solver's registry
// name and its mean makespan on the row's instance.
type Table2Cell struct {
	Solver string
	Mean   float64
}

// Table2Row compares mean makespans on one instance: one cell per
// comparator solver, plus PA-CGA at the short budget (the paper's
// "10 sec" column) and at the full budget.
type Table2Row struct {
	Instance    string
	Comparators []Table2Cell
	Short, Full float64
}

// best returns the row minimum across every column.
func (r Table2Row) best() float64 {
	best := r.Short
	for _, c := range r.Comparators {
		if c.Mean < best {
			best = c.Mean
		}
	}
	if r.Full < best {
		best = r.Full
	}
	return best
}

// BestIsPACGA reports whether one of the PA-CGA columns holds the row
// minimum.
func (r Table2Row) BestIsPACGA() bool {
	best := r.best()
	return r.Short == best || r.Full == best
}

// Table2 runs the named comparator columns (Table2Comparators for the
// paper's) against PA-CGA on each instance, reproducing the paper's
// comparison *semantics*: the published Struggle GA and cMA+LTH numbers
// were produced by 90-second runs on hardware the paper measures to be
// ~9× slower (the TSCP calibration), so the comparators receive
// budget/ShortDivisor — the same effective compute as the paper's
// comparators had. PA-CGA appears at that same short budget (the
// paper's "10 sec" column: an equal-compute comparison) and at the full
// budget (the paper's headline 90 s column). Every comparator name is
// resolved through the solver registry and run through the unified
// Solver interface; see Fig4 for the cancellation contract.
func Table2(ctx context.Context, instances []*etc.Instance, sc Scale, comparators []string) ([]Table2Row, error) {
	sc = sc.withDefaults()
	solvers := make([]solver.Solver, len(comparators))
	for i, name := range comparators {
		s, err := solver.Lookup(name)
		if err != nil {
			return nil, err
		}
		solvers[i] = s
	}

	fullBudget := sc.apply()
	shortBudget := fullBudget
	if sc.WallTime > 0 {
		shortBudget.MaxDuration = sc.WallTime / time.Duration(sc.ShortDivisor)
	} else {
		shortBudget.MaxEvaluations = max(sc.Evaluations/int64(sc.ShortDivisor), 1)
	}

	pacga := core.PACGA{Params: core.DefaultParams()}
	pacga.Params.Threads = sc.Threads

	rows := make([]Table2Row, 0, len(instances))
	for _, inst := range instances {
		row := Table2Row{Instance: inst.Name, Comparators: make([]Table2Cell, len(comparators))}
		for i, name := range comparators {
			row.Comparators[i].Solver = name
		}
		var shSum, fSum float64
		for run := 0; run < sc.Runs; run++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			seed := sc.BaseSeed + uint64(run)
			for i, s := range solvers {
				res, err := solver.WithSeed(s, seed).Solve(ctx, inst, shortBudget)
				if err != nil {
					return nil, err
				}
				row.Comparators[i].Mean += res.BestFitness
			}
			sh, err := solver.WithSeed(pacga, seed).Solve(ctx, inst, shortBudget)
			if err != nil {
				return nil, err
			}
			fl, err := solver.WithSeed(pacga, seed).Solve(ctx, inst, fullBudget)
			if err != nil {
				return nil, err
			}
			shSum += sh.BestFitness
			fSum += fl.BestFitness
		}
		n := float64(sc.Runs)
		for i := range row.Comparators {
			row.Comparators[i].Mean /= n
		}
		row.Short, row.Full = shSum/n, fSum/n
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderTable2 renders the comparison table; the row minimum is starred,
// matching the paper's bold entries.
func RenderTable2(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("Table 2: Comparison versus other algorithms (mean makespan; * = row best)\n\n")
	if len(rows) == 0 {
		return b.String()
	}
	fmt.Fprintf(&b, "  %-12s", "instance")
	for _, c := range rows[0].Comparators {
		fmt.Fprintf(&b, " %14s", c.Solver)
	}
	fmt.Fprintf(&b, " %14s %14s\n", "PA-CGA short", "PA-CGA full")
	for _, r := range rows {
		best := r.best()
		cell := func(v float64) string {
			s := fmt.Sprintf("%.1f", v)
			if v == best {
				s += "*"
			}
			return s
		}
		fmt.Fprintf(&b, "  %-12s", r.Instance)
		for _, c := range r.Comparators {
			fmt.Fprintf(&b, " %14s", cell(c.Mean))
		}
		fmt.Fprintf(&b, " %14s %14s\n", cell(r.Short), cell(r.Full))
	}
	return b.String()
}

// --- Fig. 6: convergence ---

// Fig6Series is the mean population makespan per generation for one
// thread count, averaged over replications (truncated to the shortest
// replication so every generation averages the same number of runs).
type Fig6Series struct {
	Threads int
	Mean    []float64
}

// Fig6 records convergence for 1..4 threads on one instance; see Fig4
// for the cancellation contract.
func Fig6(ctx context.Context, inst *etc.Instance, sc Scale) ([]Fig6Series, error) {
	sc = sc.withDefaults()
	var out []Fig6Series
	for threads := 1; threads <= Fig4MaxThreads; threads++ {
		var perRun [][]float64
		for run := 0; run < sc.Runs; run++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			p := core.DefaultParams()
			p.Threads = threads
			p.Seed = sc.BaseSeed + uint64(run)
			p.RecordConvergence = true
			res, err := core.PACGA{Params: p}.Solve(ctx, inst, sc.apply())
			if err != nil {
				return nil, err
			}
			if len(res.Convergence) > 0 {
				perRun = append(perRun, res.Convergence)
			}
		}
		if len(perRun) == 0 {
			out = append(out, Fig6Series{Threads: threads})
			continue
		}
		minLen := len(perRun[0])
		for _, s := range perRun[1:] {
			if len(s) < minLen {
				minLen = len(s)
			}
		}
		mean := make([]float64, minLen)
		for g := 0; g < minLen; g++ {
			sum := 0.0
			for _, s := range perRun {
				sum += s[g]
			}
			mean[g] = sum / float64(len(perRun))
		}
		out = append(out, Fig6Series{Threads: threads, Mean: mean})
	}
	return out, nil
}

// RenderFig6 renders the convergence chart.
func RenderFig6(series []Fig6Series) string {
	var b strings.Builder
	b.WriteString("Fig. 6: Evolution of the algorithm (mean population makespan vs generations)\n\n")
	var ts []textplot.Series
	for _, s := range series {
		if len(s.Mean) == 0 {
			continue
		}
		ps := textplot.Series{Name: fmt.Sprintf("%d thread(s)", s.Threads)}
		for g, v := range s.Mean {
			ps.X = append(ps.X, float64(g+1))
			ps.Y = append(ps.Y, v)
		}
		ts = append(ts, ps)
	}
	b.WriteString(textplot.LineChart("", ts, 64, 18))
	b.WriteString("\n  threads  generations  final-mean-makespan\n")
	for _, s := range series {
		if len(s.Mean) == 0 {
			fmt.Fprintf(&b, "  %7d  %11d  %s\n", s.Threads, 0, "(no data)")
			continue
		}
		fmt.Fprintf(&b, "  %7d  %11d  %19.1f\n", s.Threads, len(s.Mean), s.Mean[len(s.Mean)-1])
	}
	return b.String()
}

// BenchmarkInstances loads the 12-instance suite; a convenience shared
// by the binary and the benches.
func BenchmarkInstances() ([]*etc.Instance, error) {
	return etc.Benchmark()
}
