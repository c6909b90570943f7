package operators

import (
	"fmt"
	"math"
	"testing"

	"gridsched/internal/rng"
	"gridsched/internal/schedule"
)

// referenceCross is the historical opx/tpx implementation, kept as the
// scalar reference: the same RNG draws as OnePoint and TwoPoint, but
// every gene of p2's segment goes through its own SetAssignment. The
// production operators copy the segment with one Schedule.SetRange;
// this reference pins the required bit-identical behavior.
func referenceCross(op Crossover, child, p1, p2 *schedule.Schedule, r *rng.Rand) {
	n := len(p1.S)
	child.CopyFrom(p1)
	if n < 2 {
		return
	}
	var a, b int
	switch op.(type) {
	case OnePoint:
		a, b = 1+r.Intn(n-1), n
	case TwoPoint:
		a, b = r.Intn(n), r.Intn(n)
		if a > b {
			a, b = b, a
		}
		if a == b {
			if b < n-1 {
				b++
			} else {
				a--
			}
		}
	default:
		panic(fmt.Sprintf("referenceCross: no reference for %s", op.Name()))
	}
	for t := a; t < b; t++ {
		child.SetAssignment(t, p2.S[t])
	}
}

// requireSameChild fails unless the two children agree on every gene,
// every completion-time bit and the makespan machine.
func requireSameChild(t *testing.T, label string, want, got *schedule.Schedule) {
	t.Helper()
	for task, m := range want.S {
		if got.S[task] != m {
			t.Fatalf("%s: S[%d] = %d, reference has %d", label, task, got.S[task], m)
		}
	}
	for mac, ct := range want.CT {
		if b1, b2 := math.Float64bits(got.CT[mac]), math.Float64bits(ct); b1 != b2 {
			t.Fatalf("%s: CT[%d] bits %x, reference %x", label, mac, b1, b2)
		}
	}
	wm, _ := want.MakespanMachine()
	if gm, _ := got.MakespanMachine(); gm != wm {
		t.Fatalf("%s: makespan machine %d, reference %d", label, gm, wm)
	}
}

// TestCrossoverMatchesReference property-tests opx and tpx against the
// per-gene reference with identical RNG streams, over single-task and
// two-task instances (the degenerate and smallest-window cases), the
// paper's 512×16, a wide 8192×256 shape and partial parents. Each
// child becomes the next round's first parent and also takes a shared
// H2LL pass, so a compensation-tail difference that the child's own
// bits do not show yet surfaces in later rounds.
func TestCrossoverMatchesReference(t *testing.T) {
	shapes := []struct {
		tasks, machines int
		unassigned      float64
	}{
		{1, 3, 0},
		{2, 3, 0},
		{512, 16, 0},
		{8192, 256, 0},
		{200, 16, 0.2},
	}
	for _, sh := range shapes {
		in := testInstance(t, sh.tasks, sh.machines, uint64(11*sh.tasks+sh.machines))
		for _, op := range []Crossover{OnePoint{}, TwoPoint{}} {
			label := fmt.Sprintf("%s/%dx%d/unassigned=%g", op.Name(), sh.tasks, sh.machines, sh.unassigned)
			t.Run(label, func(t *testing.T) {
				init := rng.New(uint64(sh.tasks + sh.machines))
				parents := make([]*schedule.Schedule, 2)
				for i := range parents {
					parents[i] = schedule.NewRandom(in, init)
					for task := range parents[i].S {
						if init.Bool(sh.unassigned) {
							parents[i].Unassign(task)
						}
					}
				}
				p1, p1ref, p2 := parents[0], parents[0].Clone(), parents[1]
				got, want := schedule.New(in), schedule.New(in)
				r1, r2 := rng.New(5), rng.New(5)
				h := H2LL{Iterations: 3}
				for round := 0; round < 20; round++ {
					op.Cross(got, p1, p2, r1)
					referenceCross(op, want, p1ref, p2, r2)
					requireSameChild(t, fmt.Sprintf("round %d", round), want, got)
					h.Apply(got, r1)
					h.Apply(want, r2)
					requireSameChild(t, fmt.Sprintf("round %d after H2LL", round), want, got)
					p1, got = got, p1
					p1ref, want = want, p1ref
				}
			})
		}
	}
}

// TestCrossoverAliasedChild pins the Crossover contract's aliasing
// rule for opx, tpx and ux: Cross(child, child, p2, r), with child
// holding a copy of p1, gives bit for bit the child and the RNG state of
// Cross into a separate child, and so does crossing a parent with
// itself through Cross(child, child, child, r). Partial parents and a
// 2-task instance cover the unassigned genes and the smallest window.
func TestCrossoverAliasedChild(t *testing.T) {
	for _, sh := range []struct {
		tasks, machines int
		unassigned      float64
	}{{2, 3, 0}, {512, 16, 0}, {200, 16, 0.2}} {
		in := testInstance(t, sh.tasks, sh.machines, uint64(13*sh.tasks+sh.machines))
		for _, op := range []Crossover{OnePoint{}, TwoPoint{}, Uniform{}} {
			t.Run(fmt.Sprintf("%s/%dx%d/unassigned=%g", op.Name(), sh.tasks, sh.machines, sh.unassigned), func(t *testing.T) {
				init := rng.New(uint64(sh.tasks))
				parents := make([]*schedule.Schedule, 2)
				for i := range parents {
					parents[i] = schedule.NewRandom(in, init)
					for task := range parents[i].S {
						if init.Bool(sh.unassigned) {
							parents[i].Unassign(task)
						}
					}
				}
				p1, p2 := parents[0], parents[1]
				want, got := schedule.New(in), schedule.New(in)
				for round := 0; round < 10; round++ {
					seed := uint64(round + 1)
					r1, r2 := rng.New(seed), rng.New(seed)
					op.Cross(want, p1, p2, r1)
					got.CopyFrom(p1)
					op.Cross(got, got, p2, r2)
					requireSameChild(t, fmt.Sprintf("round %d", round), want, got)
					if a, b := r1.Uint64(), r2.Uint64(); a != b {
						t.Fatalf("round %d: RNG streams diverged", round)
					}

					r1, r2 = rng.New(seed), rng.New(seed)
					op.Cross(want, p1, p1.Clone(), r1)
					got.CopyFrom(p1)
					op.Cross(got, got, got, r2)
					requireSameChild(t, fmt.Sprintf("round %d, self-cross", round), want, got)
					if a, b := r1.Uint64(), r2.Uint64(); a != b {
						t.Fatalf("round %d, self-cross: RNG streams diverged", round)
					}
					p1, p2 = p2, p1
				}
			})
		}
	}
}

// TestCrossoverAllocationFree pins that opx and tpx allocate nothing:
// the child is caller-provided workspace and SetRange updates it in
// place.
func TestCrossoverAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins run without the race detector, like H2LL's")
	}
	for _, sh := range []struct{ tasks, machines int }{{512, 16}, {8192, 256}} {
		in := testInstance(t, sh.tasks, sh.machines, uint64(7*sh.tasks+sh.machines))
		r := rng.New(1)
		p1, p2, child := schedule.NewRandom(in, r), schedule.NewRandom(in, r), schedule.New(in)
		for _, op := range []Crossover{OnePoint{}, TwoPoint{}} {
			if allocs := testing.AllocsPerRun(50, func() { op.Cross(child, p1, p2, r) }); allocs != 0 {
				t.Errorf("%s %dx%d: %v allocs per Cross, want 0", op.Name(), sh.tasks, sh.machines, allocs)
			}
		}
	}
}
