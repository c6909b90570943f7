package etc

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"gridsched/internal/rng"
)

func genClass(t *testing.T, cons Consistency, th, mh Heterogeneity) *Instance {
	t.Helper()
	cl := Class{Consistency: cons, TaskHet: th, MachineHet: mh}
	in, err := Generate(GenSpec{Class: cl, Tasks: 128, Machines: 16, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestConsistencyIndexByClass(t *testing.T) {
	cons := ComputeMetrics(genClass(t, Consistent, High, High))
	if cons.ConsistencyIndex != 1 {
		t.Fatalf("consistent instance index %v, want 1", cons.ConsistencyIndex)
	}
	inc := ComputeMetrics(genClass(t, Inconsistent, High, High))
	if inc.ConsistencyIndex > 0.1 {
		t.Fatalf("inconsistent instance index %v, want ~0", inc.ConsistencyIndex)
	}
	semi := ComputeMetrics(genClass(t, SemiConsistent, High, High))
	if semi.ConsistencyIndex <= inc.ConsistencyIndex || semi.ConsistencyIndex >= cons.ConsistencyIndex {
		t.Fatalf("semi-consistent index %v not strictly between %v and %v",
			semi.ConsistencyIndex, inc.ConsistencyIndex, cons.ConsistencyIndex)
	}
}

func TestHeterogeneityOrdering(t *testing.T) {
	hiTask := ComputeMetrics(genClass(t, Inconsistent, High, Low))
	loTask := ComputeMetrics(genClass(t, Inconsistent, Low, Low))
	if hiTask.TaskHeterogeneity <= loTask.TaskHeterogeneity {
		t.Fatalf("hi-task het %v not above lo-task het %v",
			hiTask.TaskHeterogeneity, loTask.TaskHeterogeneity)
	}
	hiMach := ComputeMetrics(genClass(t, Inconsistent, Low, High))
	loMach := ComputeMetrics(genClass(t, Inconsistent, Low, Low))
	if hiMach.MachineHeterogeneity <= loMach.MachineHeterogeneity {
		t.Fatalf("hi-machine het %v not above lo-machine het %v",
			hiMach.MachineHeterogeneity, loMach.MachineHeterogeneity)
	}
}

func TestIdealMakespanIsLowerBound(t *testing.T) {
	// The bound must not exceed what any constructive schedule achieves.
	in := genClass(t, Inconsistent, High, High)
	m := ComputeMetrics(in)
	if m.IdealMakespan <= 0 {
		t.Fatalf("ideal makespan %v", m.IdealMakespan)
	}
	// A crude upper bound: every task at its max ETC on one machine.
	worst := 0.0
	for task := 0; task < in.T; task++ {
		for mac := 0; mac < in.M; mac++ {
			worst += in.ETC(task, mac)
		}
	}
	if m.IdealMakespan >= worst {
		t.Fatal("ideal makespan above the trivial upper bound")
	}
}

func TestMetricsMeanStd(t *testing.T) {
	in, err := New("flat", 2, 2, []float64{3, 3, 3, 3})
	if err != nil {
		t.Fatal(err)
	}
	m := ComputeMetrics(in)
	if m.MeanETC != 3 || m.StdETC != 0 {
		t.Fatalf("mean/std %v/%v, want 3/0", m.MeanETC, m.StdETC)
	}
	if m.TaskHeterogeneity != 0 || m.MachineHeterogeneity != 0 {
		t.Fatal("flat matrix reports heterogeneity")
	}
	if m.ConsistencyIndex != 1 {
		t.Fatal("flat matrix is trivially consistent")
	}
	// Ideal: each task min = 3, sum 6, /2 machines = 3.
	if m.IdealMakespan != 3 {
		t.Fatalf("ideal %v, want 3", m.IdealMakespan)
	}
}

func TestMetricsString(t *testing.T) {
	in := genClass(t, Consistent, Low, Low)
	s := ComputeMetrics(in).String()
	for _, want := range []string{"consistency", "ideal makespan", "task het"} {
		if !strings.Contains(s, want) {
			t.Fatalf("metrics string missing %q: %s", want, s)
		}
	}
}

func TestCoefficientOfVariation(t *testing.T) {
	if cv := coefficientOfVariation(nil); cv != 0 {
		t.Fatalf("empty CV %v", cv)
	}
	if cv := coefficientOfVariation([]float64{5, 5, 5}); cv != 0 {
		t.Fatalf("constant CV %v", cv)
	}
	// {1, 3}: mean 2, population std 1, CV 0.5.
	if cv := coefficientOfVariation([]float64{1, 3}); math.Abs(cv-0.5) > 1e-12 {
		t.Fatalf("CV %v, want 0.5", cv)
	}
}

// referenceConsistency is the machine-pair scan over a transposed copy
// of the matrix: every pair (a, b) walks the two machines' cost columns
// and stops at its first contradiction. It returns ConsistencyIndex
// and the α field of Blazewicz.
func referenceConsistency(in *Instance) (index float64, alpha string) {
	col := make([]float64, len(in.Row))
	for t := 0; t < in.T; t++ {
		for m := 0; m < in.M; m++ {
			col[m*in.T+t] = in.Row[t*in.M+m]
		}
	}
	consistent, total := 0, 0
	for a := 0; a < in.M; a++ {
		ca := col[a*in.T : (a+1)*in.T]
		for b := a + 1; b < in.M; b++ {
			cb := col[b*in.T : (b+1)*in.T]
			total++
			aFaster, bFaster := false, false
			for t, va := range ca {
				if vb := cb[t]; va < vb {
					aFaster = true
				} else if va > vb {
					bFaster = true
				}
				if aFaster && bFaster {
					break
				}
			}
			if !(aFaster && bFaster) {
				consistent++
			}
		}
	}
	if consistent < total {
		alpha = "R"
	} else {
		alpha = "Q"
	}
	if total == 0 {
		return 1, alpha
	}
	return float64(consistent) / float64(total), alpha
}

// checkConsistencyAgainstReference requires ConsistencyIndex and
// Blazewicz to equal the column-pair reference exactly.
func checkConsistencyAgainstReference(t *testing.T, label string, in *Instance) {
	t.Helper()
	index, alpha := referenceConsistency(in)
	if got := ComputeMetrics(in).ConsistencyIndex; got != index {
		t.Fatalf("%s: ConsistencyIndex = %v, reference %v", label, got, index)
	}
	lo, hi := in.MinMaxETC()
	if got, want := in.Blazewicz(), fmt.Sprintf("%s%d|%.2f ≤ pj ≤ %.2f|Cmax", alpha, in.M, lo, hi); got != want {
		t.Fatalf("%s: Blazewicz = %q, reference %q", label, got, want)
	}
}

// TestConsistencyMatchesReference pins the row-major pair sweep behind
// ConsistencyIndex and Blazewicz to the column-pair reference on every
// Braun class and on hand-built matrices with ties.
func TestConsistencyMatchesReference(t *testing.T) {
	for _, dims := range [][2]int{{64, 8}, {512, 16}, {256, 64}} {
		for _, cl := range AllClasses() {
			in, err := Generate(GenSpec{Class: cl, Tasks: dims[0], Machines: dims[1], Seed: classSeed(cl)})
			if err != nil {
				t.Fatal(err)
			}
			checkConsistencyAgainstReference(t, fmt.Sprintf("%s@%dx%d", cl.Name(), dims[0], dims[1]), in)
		}
	}

	hand := []struct {
		name         string
		tasks, machs int
		row          []float64
	}{
		{"single machine", 3, 1, []float64{1, 2, 3}},
		{"single task", 1, 4, []float64{3, 1, 4, 1}},
		{"flat", 3, 3, []float64{2, 2, 2, 2, 2, 2, 2, 2, 2}},
		// Columns 0 and 1 are identical: the pair is tied on every task.
		{"identical columns", 3, 3, []float64{1, 1, 2, 5, 5, 4, 3, 3, 3}},
		// (0,1) ties, then splits both ways; (0,2) and (1,2) tie once
		// and otherwise keep one order.
		{"ties then contradiction", 3, 3, []float64{1, 1, 2, 1, 2, 2, 2, 1, 2}},
		// Every pair keeps one order, told apart only on the last task.
		{"late decision", 3, 3, []float64{1, 1, 1, 1, 1, 1, 1, 2, 3}},
		{"reversed order", 2, 3, []float64{3, 2, 1, 6, 5, 4}},
	}
	for _, h := range hand {
		in, err := New(h.name, h.tasks, h.machs, h.row)
		if err != nil {
			t.Fatal(err)
		}
		checkConsistencyAgainstReference(t, h.name, in)
	}

	// Entries drawn from {1, 2, 3} tie often, so pairs stay tied for
	// several tasks before they are decided or contradicted.
	r := rng.New(17)
	for trial := 0; trial < 200; trial++ {
		tasks, machs := 1+r.Intn(12), 1+r.Intn(7)
		row := make([]float64, tasks*machs)
		for i := range row {
			row[i] = float64(1 + r.Intn(3))
		}
		in, err := New("ties", tasks, machs, row)
		if err != nil {
			t.Fatal(err)
		}
		checkConsistencyAgainstReference(t, fmt.Sprintf("tied trial %d (%dx%d)", trial, tasks, machs), in)
	}
}
