package schedule

import (
	"fmt"
	"math"
	"testing"

	"gridsched/internal/etc"
	"gridsched/internal/rng"
)

// batchTestInstance generates one instance per geometry of
// batchTestShapes.
func batchTestInstance(t *testing.T, tasks, machines int, seed uint64) *etc.Instance {
	t.Helper()
	in, err := etc.Generate(etc.GenSpec{
		Class:    etc.Class{Consistency: etc.Inconsistent, TaskHet: etc.High, MachineHet: etc.High},
		Tasks:    tasks,
		Machines: machines,
		Seed:     seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

var batchTestShapes = []struct{ tasks, machines int }{
	{7, 1},    // degenerate single machine
	{64, 4},   // tiny
	{257, 16}, // paper-ish machine count, odd task count
	{128, 32},
	{128, 33},
	{300, 64}, // wide
}

// randomAssignment fills a fresh assignment vector, leaving a sprinkle
// of tasks Unassigned so the kernels' partial-schedule path is covered.
func randomAssignment(in *etc.Instance, r *rng.Rand) []int {
	a := make([]int, in.T)
	for t := range a {
		if r.Bool(0.1) {
			a[t] = Unassigned
		} else {
			a[t] = r.Intn(in.M)
		}
	}
	return a
}

// bitsEqual reports float64 bit equality, the equivalence every batched
// kernel must satisfy against its scalar reference.
func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// requireSameState fails unless the two schedules agree bit-for-bit on
// every piece of state that influences future trajectories: assignment,
// completion-time heads AND compensation tails. It also compares the
// makespan machines the two report.
func requireSameState(t *testing.T, want, got *Schedule, label string) {
	t.Helper()
	for i, m := range want.S {
		if got.S[i] != m {
			t.Fatalf("%s: S[%d] = %d, want %d", label, i, got.S[i], m)
		}
	}
	for m := range want.CT {
		if !bitsEqual(want.CT[m], got.CT[m]) {
			t.Fatalf("%s: CT[%d] = %x, want %x", label, m,
				math.Float64bits(got.CT[m]), math.Float64bits(want.CT[m]))
		}
		if !bitsEqual(want.ctLo[m], got.ctLo[m]) {
			t.Fatalf("%s: ctLo[%d] = %x, want %x", label, m,
				math.Float64bits(got.ctLo[m]), math.Float64bits(want.ctLo[m]))
		}
	}
	wm, wct := want.MakespanMachine()
	gm, gct := got.MakespanMachine()
	if wm != gm || !bitsEqual(wct, gct) {
		t.Fatalf("%s: makespan machine/CT = %d/%x, want %d/%x", label,
			gm, math.Float64bits(gct), wm, math.Float64bits(wct))
	}
}

// TestSetAssignmentsMatchesSequentialAssign is the bulk-load equivalence
// property: loading a vector through SetAssignments (the task-ordered
// bulk-load pass) must leave the schedule in the bit-identical state that
// assigning every task incrementally in ascending order produces —
// including the compensation tails, so the two schedules stay
// bit-identical under any shared sequence of subsequent moves.
func TestSetAssignmentsMatchesSequentialAssign(t *testing.T) {
	for _, sh := range batchTestShapes {
		in := batchTestInstance(t, sh.tasks, sh.machines, uint64(41*sh.tasks+sh.machines))
		r := rng.New(uint64(1000*sh.tasks + sh.machines))
		for trial := 0; trial < 8; trial++ {
			a := randomAssignment(in, r)

			ref := New(in)
			for task, m := range a {
				if m != Unassigned {
					ref.Assign(task, m)
				}
			}
			bulk := New(in)
			if err := bulk.SetAssignments(a); err != nil {
				t.Fatal(err)
			}
			requireSameState(t, ref, bulk, "after load")

			// Drive both through the same 50 moves: identical state now
			// must mean identical state forever.
			mr := rng.New(uint64(trial) + 99)
			for i := 0; i < 50; i++ {
				task, m := mr.Intn(in.T), mr.Intn(in.M)
				ref.Move(task, m)
				bulk.Move(task, m)
			}
			requireSameState(t, ref, bulk, "after shared moves")
		}
	}
}

// TestSetRangeMatchesSetAssignmentLoop is SetRange's equivalence
// property: overwriting a window of genes must leave the bit-identical
// state of a per-gene SetAssignment loop over the same window in
// ascending order. Each trial chains several windows on one schedule so
// the compensation tails compound, over random sources, near-identical
// sources (a few genes differ, so most of the window is a no-op) and
// identical ones (nothing changes), with Unassigned entries on both
// sides and empty, single-gene, full and random windows.
func TestSetRangeMatchesSetAssignmentLoop(t *testing.T) {
	for _, sh := range batchTestShapes {
		in := batchTestInstance(t, sh.tasks, sh.machines, uint64(43*sh.tasks+sh.machines))
		r := rng.New(uint64(2000*sh.tasks + sh.machines))
		for trial := 0; trial < 12; trial++ {
			ref := New(in)
			if trial > 0 { // trial 0 starts from the empty schedule
				if err := ref.SetAssignments(randomAssignment(in, r)); err != nil {
					t.Fatal(err)
				}
			}
			got := ref.Clone()
			for round := 0; round < 6; round++ {
				src := randomAssignment(in, r)
				switch trial % 3 {
				case 1:
					copy(src, ref.S)
					for k := 0; k < 3; k++ {
						src[r.Intn(in.T)] = r.Intn(in.M+1) - 1
					}
				case 2:
					copy(src, ref.S)
				}
				var start, end int
				switch round {
				case 0: // empty
					start = r.Intn(in.T + 1)
					end = start
				case 1: // single gene
					start = r.Intn(in.T)
					end = start + 1
				case 2: // full
					start, end = 0, in.T
				default:
					start, end = r.Intn(in.T+1), r.Intn(in.T+1)
					if start > end {
						start, end = end, start
					}
				}
				for task := start; task < end; task++ {
					ref.SetAssignment(task, src[task])
				}
				got.SetRange(start, src[start:end])
				requireSameState(t, ref, got, fmt.Sprintf("%dx%d trial %d round %d [%d,%d)",
					sh.tasks, sh.machines, trial, round, start, end))
			}
		}
	}
}

// TestBatchEvaluateMatchesFromAssignment checks the batched whole-
// population kernel against the scalar path: every lane's makespan must
// be bit-identical to FromAssignment(...).Makespan() for the same
// vector.
func TestBatchEvaluateMatchesFromAssignment(t *testing.T) {
	var sc Scratch
	for _, sh := range batchTestShapes {
		in := batchTestInstance(t, sh.tasks, sh.machines, uint64(17*sh.tasks+sh.machines))
		r := rng.New(uint64(2000*sh.tasks + sh.machines))
		batch := make([][]int, 9)
		for i := range batch {
			batch[i] = randomAssignment(in, r)
		}
		// One fully-unassigned vector: the makespan must degrade to the
		// max ready time exactly like the scalar path's.
		empty := make([]int, in.T)
		for i := range empty {
			empty[i] = Unassigned
		}
		batch = append(batch, empty)

		got := sc.BatchEvaluate(in, batch)
		for i, a := range batch {
			s, err := FromAssignment(in, a)
			if err != nil {
				t.Fatal(err)
			}
			if want := s.Makespan(); !bitsEqual(want, got[i]) {
				t.Fatalf("%dx%d lane %d: makespan %x, want %x", sh.tasks, sh.machines, i,
					math.Float64bits(got[i]), math.Float64bits(want))
			}
		}
	}
}

// TestBatchEvaluateValidates pins the kernel's length contract.
func TestBatchEvaluateValidates(t *testing.T) {
	in := batchTestInstance(t, 16, 4, 3)
	var sc Scratch
	defer func() {
		if recover() == nil {
			t.Fatal("BatchEvaluate accepted a short vector")
		}
	}()
	sc.BatchEvaluate(in, [][]int{make([]int, in.T-1)})
}

// TestMoveScoresMatchesScalar checks the batched neighborhood kernel:
// out[m] must be bit-identical to the scalar CT[m] + ETC(task, m) that
// tabu and H2LL historically computed per element.
func TestMoveScoresMatchesScalar(t *testing.T) {
	var sc Scratch
	for _, sh := range batchTestShapes {
		in := batchTestInstance(t, sh.tasks, sh.machines, uint64(29*sh.tasks+sh.machines))
		r := rng.New(uint64(3000*sh.tasks + sh.machines))
		s := NewRandom(in, r)
		for trial := 0; trial < 16; trial++ {
			task := r.Intn(in.T)
			scores := sc.MoveScores(s, task)
			if len(scores) != in.M {
				t.Fatalf("MoveScores length %d, want %d", len(scores), in.M)
			}
			for m := 0; m < in.M; m++ {
				if want := s.CT[m] + in.ETC(task, m); !bitsEqual(want, scores[m]) {
					t.Fatalf("task %d machine %d: score %x, want %x", task, m,
						math.Float64bits(scores[m]), math.Float64bits(want))
				}
			}
			s.Move(task, r.Intn(in.M))
		}
	}
}
