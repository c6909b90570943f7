package operators

import (
	"testing"

	"gridsched/internal/etc"
	"gridsched/internal/rng"
	"gridsched/internal/schedule"
)

// Property tests over randomized trials: every variation operator must
// produce valid assignments (every task on a real machine, incremental
// completion times exact), never alias its parents' backing slices,
// and never corrupt the parents.

const propertyTrials = 200

func propInstance(t *testing.T) *etc.Instance {
	t.Helper()
	in, err := etc.Generate(etc.GenSpec{
		Class: etc.Class{Consistency: etc.Inconsistent, TaskHet: etc.High, MachineHet: etc.High},
		Tasks: 40, Machines: 7, Seed: 0xBEEF,
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// sharesBacking reports whether two float64 slices overlap in memory.
func sharesBacking(a, b []float64) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

func sharesBackingInt(a, b []int) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// requireIntact asserts s still equals its snapshot.
func requireIntact(t *testing.T, label string, s *schedule.Schedule, snapS []int, snapCT []float64) {
	t.Helper()
	for i, m := range snapS {
		if s.S[i] != m {
			t.Fatalf("%s: parent assignment mutated at task %d", label, i)
		}
	}
	for i, ct := range snapCT {
		if s.CT[i] != ct {
			t.Fatalf("%s: parent completion time mutated at machine %d", label, i)
		}
	}
}

func TestCrossoverProperties(t *testing.T) {
	in := propInstance(t)
	r := rng.New(1)
	for _, cx := range []Crossover{OnePoint{}, TwoPoint{}, Uniform{}} {
		t.Run(cx.Name(), func(t *testing.T) {
			for trial := 0; trial < propertyTrials; trial++ {
				p1 := schedule.NewRandom(in, r)
				p2 := schedule.NewRandom(in, r)
				s1, ct1 := append([]int(nil), p1.S...), append([]float64(nil), p1.CT...)
				s2, ct2 := append([]int(nil), p2.S...), append([]float64(nil), p2.CT...)

				child := schedule.New(in)
				cx.Cross(child, p1, p2, r)

				if sharesBackingInt(child.S, p1.S) || sharesBackingInt(child.S, p2.S) ||
					sharesBacking(child.CT, p1.CT) || sharesBacking(child.CT, p2.CT) {
					t.Fatal("child aliases a parent's backing slice")
				}
				if !child.Complete() {
					t.Fatal("child schedule incomplete")
				}
				if err := child.Validate(); err != nil {
					t.Fatalf("child invalid after %s: %v", cx.Name(), err)
				}
				for task, m := range child.S {
					if m != s1[task] && m != s2[task] {
						t.Fatalf("%s: child gene %d = %d comes from neither parent (%d, %d)",
							cx.Name(), task, m, s1[task], s2[task])
					}
				}
				requireIntact(t, "p1", p1, s1, ct1)
				requireIntact(t, "p2", p2, s2, ct2)
			}
		})
	}
}

func TestMutationProperties(t *testing.T) {
	in := propInstance(t)
	r := rng.New(2)
	for _, mut := range []Mutation{Move{}, Swap{}, Rebalance{}} {
		t.Run(mut.Name(), func(t *testing.T) {
			for trial := 0; trial < propertyTrials; trial++ {
				s := schedule.NewRandom(in, r)
				mut.Mutate(s, r)
				if !s.Complete() {
					t.Fatalf("%s left tasks unassigned", mut.Name())
				}
				if err := s.Validate(); err != nil {
					t.Fatalf("%s corrupted the schedule: %v", mut.Name(), err)
				}
			}
		})
	}
}

func TestH2LLProperties(t *testing.T) {
	in := propInstance(t)
	r := rng.New(3)
	for _, iters := range []int{1, 5, 10} {
		ls := H2LL{Iterations: iters}
		for trial := 0; trial < propertyTrials/2; trial++ {
			s := schedule.NewRandom(in, r)
			before := s.Makespan()
			moves := ls.Apply(s, r)
			if moves < 0 || moves > iters {
				t.Fatalf("h2ll/%d reported %d moves", iters, moves)
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("h2ll/%d corrupted the schedule: %v", iters, err)
			}
			if after := s.Makespan(); after > before {
				t.Fatalf("h2ll/%d worsened makespan: %v -> %v", iters, before, after)
			}
			if moves == 0 && s.Makespan() != before {
				t.Fatalf("h2ll/%d changed makespan with zero reported moves", iters)
			}
		}
	}
}

func TestSelectorProperties(t *testing.T) {
	r := rng.New(4)
	for _, sel := range []Selector{BestTwo{}, BinaryTournament{}} {
		t.Run(sel.Name(), func(t *testing.T) {
			for trial := 0; trial < propertyTrials; trial++ {
				n := 1 + r.Intn(9)
				cands := make([]Candidate, n)
				for i := range cands {
					cands[i] = Candidate{Cell: i, Fitness: float64(r.Intn(50))}
				}
				p1, p2 := sel.Select(cands, r)
				if p1 < 0 || p1 >= n || p2 < 0 || p2 >= n {
					t.Fatalf("%s returned out-of-range parents %d, %d for %d candidates", sel.Name(), p1, p2, n)
				}
			}
		})
	}
}
