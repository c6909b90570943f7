package experiments

import (
	"context"
	"strings"
	"testing"
	"time"

	"gridsched/internal/etc"
)

func smallInstance(t testing.TB, name string) *etc.Instance {
	t.Helper()
	cl, err := etc.ParseClass(name)
	if err != nil {
		t.Fatal(err)
	}
	in, err := etc.Generate(etc.GenSpec{Class: cl, Tasks: 64, Machines: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// tinyScale returns a deterministic, very fast scale for unit tests.
func tinyScale() Scale {
	return Scale{Runs: 2, Evaluations: 1500, ShortDivisor: 9, Threads: 2, BaseSeed: 7}
}

func TestScaleDefaults(t *testing.T) {
	sc := Scale{}.withDefaults()
	if sc.Runs <= 0 || sc.Evaluations <= 0 || sc.ShortDivisor <= 0 || sc.Threads <= 0 {
		t.Fatalf("defaults incomplete: %+v", sc)
	}
	ci := CIScale()
	if ci.WallTime != 0 {
		t.Fatal("CI scale must be deterministic (no wall clock)")
	}
	ps := PaperScale()
	if ps.Runs != 100 || ps.WallTime != 90*time.Second {
		t.Fatalf("paper scale wrong: %+v", ps)
	}
}

func TestTable1MentionsPaperParameters(t *testing.T) {
	out := Table1()
	for _, want := range []string{"16x16", "L5", "best2", "p_comb = 1.0", "p_mut = 1.0", "h2ll/10", "Min-min", "if-better"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestFig4RequiresWallClock(t *testing.T) {
	in := smallInstance(t, "u_c_hihi.0")
	if _, err := Fig4(context.Background(), in, tinyScale()); err == nil {
		t.Fatal("Fig4 accepted an evaluation-budget scale")
	}
}

func TestFig4ShapeAndBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock experiment")
	}
	in := smallInstance(t, "u_c_hihi.0")
	sc := Scale{Runs: 1, WallTime: 30 * time.Millisecond, Threads: 3, BaseSeed: 1}
	rows, err := Fig4(context.Background(), in, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Fig4LSIterations)*Fig4MaxThreads {
		t.Fatalf("%d rows, want %d", len(rows), len(Fig4LSIterations)*Fig4MaxThreads)
	}
	for _, r := range rows {
		if r.Threads == 1 && r.SpeedupPct != 100 {
			t.Fatalf("1-thread speedup %v, want 100", r.SpeedupPct)
		}
		if r.MeanEvals <= 0 {
			t.Fatalf("no evaluations measured for %+v", r)
		}
	}
	out := RenderFig4(rows)
	if !strings.Contains(out, "Fig. 4") || !strings.Contains(out, "10 iteration(s)") {
		t.Fatalf("render missing content:\n%s", out)
	}
}

func TestFig5CellsAndRender(t *testing.T) {
	instances := []*etc.Instance{smallInstance(t, "u_i_hihi.0"), smallInstance(t, "u_c_lolo.0")}
	cells, err := Fig5(context.Background(), instances, tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2*4 {
		t.Fatalf("%d cells, want 8", len(cells))
	}
	labels := map[string]bool{}
	for _, c := range cells {
		labels[c.Config] = true
		if len(c.Makespans) != 2 {
			t.Fatalf("cell %s/%s has %d samples", c.Instance, c.Config, len(c.Makespans))
		}
		if c.Box.N != 2 {
			t.Fatal("box plot sample count mismatch")
		}
	}
	for _, want := range []string{"opx/5", "tpx/5", "opx/10", "tpx/10"} {
		if !labels[want] {
			t.Fatalf("config %s missing", want)
		}
	}
	out := RenderFig5(cells)
	if !strings.Contains(out, "u_i_hihi.0") || !strings.Contains(out, "tpx/10") {
		t.Fatalf("render missing content:\n%s", out)
	}
	if !strings.Contains(out, "Significance") {
		t.Fatal("render missing significance summary")
	}
}

func TestFig5SignificanceStructure(t *testing.T) {
	instances := []*etc.Instance{smallInstance(t, "u_s_hilo.0")}
	cells, err := Fig5(context.Background(), instances, tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	sig, err := Fig5Significance(cells)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sig["u_s_hilo.0"]; !ok {
		t.Fatal("instance missing from significance map")
	}
	// Missing config should error.
	if _, err := Fig5Significance(cells[:1]); err == nil {
		t.Fatal("incomplete cells accepted")
	}
}

func TestTable2RowsAndRender(t *testing.T) {
	instances := []*etc.Instance{smallInstance(t, "u_i_hilo.0")}
	rows, err := Table2(context.Background(), instances, tinyScale(), Table2Comparators)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("%d rows", len(rows))
	}
	r := rows[0]
	if r.Instance != "u_i_hilo.0" {
		t.Fatalf("instance %s", r.Instance)
	}
	if len(r.Comparators) != len(Table2Comparators) {
		t.Fatalf("%d comparator columns, want %d", len(r.Comparators), len(Table2Comparators))
	}
	vals := []float64{r.Short, r.Full}
	for _, c := range r.Comparators {
		vals = append(vals, c.Mean)
	}
	for _, v := range vals {
		if v <= 0 {
			t.Fatalf("non-positive makespan in row %+v", r)
		}
	}
	// The full-budget PA-CGA should beat the short-budget one (or tie).
	if r.Full > r.Short {
		t.Fatalf("full budget (%v) worse than short budget (%v)", r.Full, r.Short)
	}
	out := RenderTable2(rows)
	if !strings.Contains(out, "u_i_hilo.0") || !strings.Contains(out, "*") {
		t.Fatalf("render missing content:\n%s", out)
	}
}

func TestTable2BestIsPACGA(t *testing.T) {
	comparators := func(a, b float64) []Table2Cell {
		return []Table2Cell{{Solver: "struggle", Mean: a}, {Solver: "cma-lth", Mean: b}}
	}
	r := Table2Row{Comparators: comparators(10, 9), Short: 8, Full: 7}
	if !r.BestIsPACGA() {
		t.Fatal("PA-CGA best not detected")
	}
	r = Table2Row{Comparators: comparators(5, 9), Short: 8, Full: 7}
	if r.BestIsPACGA() {
		t.Fatal("false PA-CGA win")
	}
}

func TestTable2SolversUnknownComparator(t *testing.T) {
	instances := []*etc.Instance{smallInstance(t, "u_i_hilo.0")}
	if _, err := Table2(context.Background(), instances, tinyScale(), []string{"no-such-solver"}); err == nil {
		t.Fatal("unknown comparator accepted")
	}
}

func TestFig6SeriesAndRender(t *testing.T) {
	in := smallInstance(t, "u_c_hihi.0")
	sc := tinyScale()
	series, err := Fig6(context.Background(), in, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != Fig4MaxThreads {
		t.Fatalf("%d series, want %d", len(series), Fig4MaxThreads)
	}
	for _, s := range series {
		if len(s.Mean) == 0 {
			t.Fatalf("threads=%d produced no convergence data", s.Threads)
		}
		for g := 1; g < len(s.Mean); g++ {
			if s.Mean[g] > s.Mean[g-1]+1e-6 {
				t.Fatalf("threads=%d: population mean increased at generation %d", s.Threads, g)
			}
		}
	}
	out := RenderFig6(series)
	if !strings.Contains(out, "Fig. 6") || !strings.Contains(out, "3 thread(s)") {
		t.Fatalf("render missing content:\n%s", out)
	}
}

func TestBenchmarkInstances(t *testing.T) {
	suite, err := BenchmarkInstances()
	if err != nil {
		t.Fatal(err)
	}
	if len(suite) != 12 {
		t.Fatalf("suite size %d", len(suite))
	}
}
