package operators

import (
	"fmt"
	"math"
	"testing"

	"gridsched/internal/rng"
	"gridsched/internal/schedule"
)

// referenceH2LLApply is the historical H2LL implementation, kept
// verbatim as the scalar reference: each iteration draws the task off
// the makespan machine with RandomTaskOn's full scan of the assignment
// vector (one Intn over the machine's task count, then the k-th task in
// ascending order), builds the sorted least-loaded candidate list with
// the heap-based LeastLoaded and walks it in order with per-element
// strict comparisons. The production Apply links and counts the tasks
// in per-machine lists and sorts the machines once per call and
// maintains all of them across moves; this reference pins the required
// bit-identical behavior.
func referenceH2LLApply(h H2LL, s *schedule.Schedule, r *rng.Rand) int {
	if h.Iterations <= 0 {
		return 0
	}
	m := s.Inst.M
	ncand := h.Candidates
	if ncand <= 0 {
		ncand = m / 2
	}
	if ncand > m-1 {
		ncand = m - 1
	}
	if ncand < 1 {
		return 0
	}
	var cand []int
	moves := 0
	for it := 0; it < h.Iterations; it++ {
		worst, worstCT := s.MakespanMachine()
		task := s.RandomTaskOn(worst, r)
		if task < 0 {
			break
		}
		cand = s.LeastLoaded(cand, ncand)
		bestScore := worstCT
		bestMac := -1
		for _, mac := range cand {
			if newScore := s.CT[mac] + s.Inst.ETC(task, mac); newScore < bestScore {
				bestScore = newScore
				bestMac = mac
			}
		}
		if bestMac >= 0 {
			s.Move(task, bestMac)
			moves++
		}
	}
	return moves
}

// h2llMatchesReference runs the production H2LL and the reference on
// clones of s with identical RNG streams for several rounds, so any
// divergence compounds, and requires identical move counts, assignments
// and bit-identical makespans after each round. It returns the
// production schedule and its total move count.
func h2llMatchesReference(t *testing.T, h H2LL, s *schedule.Schedule, seed uint64) (*schedule.Schedule, int) {
	t.Helper()
	s1, s2 := s.Clone(), s.Clone()
	r1, r2 := rng.New(seed), rng.New(seed)
	total := 0
	for round := 0; round < 4; round++ {
		m1 := h.Apply(s1, r1)
		m2 := referenceH2LLApply(h, s2, r2)
		if m1 != m2 {
			t.Fatalf("%+v round %d: %d moves, reference made %d", h, round, m1, m2)
		}
		for task := range s1.S {
			if s1.S[task] != s2.S[task] {
				t.Fatalf("%+v round %d: S[%d] = %d, reference has %d", h, round, task, s1.S[task], s2.S[task])
			}
		}
		if b1, b2 := math.Float64bits(s1.Makespan()), math.Float64bits(s2.Makespan()); b1 != b2 {
			t.Fatalf("%+v round %d: makespan bits %x, reference %x", h, round, b1, b2)
		}
		total += m1
	}
	return s1, total
}

// TestH2LLApplyMatchesReference property-tests the production H2LL
// against the scalar reference over instance geometries covering tiny
// machine counts, candidate-set clamping, the default Candidates =
// machines/2, the paper's 512×16 and a wide 1024×256 shape, plus the
// edge cases of the linked-list task draw: partial schedules, a makespan
// machine that holds no task, and more iterations than the makespan
// machine has tasks.
func TestH2LLApplyMatchesReference(t *testing.T) {
	shapes := []struct{ tasks, machines int }{
		{16, 2},
		{64, 5},
		{200, 16},
		{300, 40},
		{512, 16},
		{1024, 256},
	}
	for _, sh := range shapes {
		in := testInstance(t, sh.tasks, sh.machines, uint64(7*sh.tasks+sh.machines))
		t.Run(fmt.Sprintf("%dx%d", sh.tasks, sh.machines), func(t *testing.T) {
			for _, ncand := range []int{0, 1, 3, sh.machines, sh.machines + 5} {
				seed := uint64(100*sh.tasks + 10*sh.machines + ncand)
				s := schedule.NewRandom(in, rng.New(seed))
				h2llMatchesReference(t, H2LL{Iterations: 12, Candidates: ncand}, s, seed+1)
			}
		})
		t.Run(fmt.Sprintf("partial-%dx%d", sh.tasks, sh.machines), func(t *testing.T) {
			r := rng.New(uint64(sh.tasks + sh.machines))
			s := schedule.NewRandom(in, r)
			for task := range s.S {
				if r.Bool(0.3) {
					s.Unassign(task)
				}
			}
			h2llMatchesReference(t, H2LL{Iterations: 12}, s, 3)
		})
	}

	// Machine 0 holds no task and its ready time sits below the initial
	// makespan: H2LL drains the loaded machines until machine 0 defines
	// the makespan, then must stop early at the empty list. With the
	// ready time above the makespan it stops at the first iteration.
	for _, frac := range []float64{0.9, 2} {
		t.Run(fmt.Sprintf("empty-makespan-machine-%g", frac), func(t *testing.T) {
			base := testInstance(t, 64, 8, 456)
			r := rng.New(11)
			s := schedule.New(base)
			for task := range s.S {
				s.Assign(task, 1+r.Intn(base.M-1))
			}
			ready := make([]float64, base.M)
			ready[0] = frac * s.Makespan()
			in, err := base.WithReady(ready)
			if err != nil {
				t.Fatal(err)
			}
			s, err = schedule.FromAssignment(in, s.S)
			if err != nil {
				t.Fatal(err)
			}
			h := H2LL{Iterations: 200}
			got, moves := h2llMatchesReference(t, h, s, 5)
			if w, _ := got.MakespanMachine(); w != 0 || got.CountOn(0) != 0 {
				t.Fatalf("makespan machine %d with %d tasks, want empty machine 0", w, got.CountOn(w))
			}
			if moves >= 4*h.Iterations || (frac < 1) != (moves > 0) {
				t.Fatalf("%d moves: want some moves before the early stop iff machine 0 starts below the makespan", moves)
			}
		})
	}

	// 40 tasks over 10 machines: 200 iterations far exceed any machine's
	// task count, so task lists drain and refill repeatedly.
	t.Run("iterations-exceed-tasks", func(t *testing.T) {
		in := testInstance(t, 40, 10, 290)
		s := schedule.NewRandom(in, rng.New(17))
		h := H2LL{Iterations: 200}
		if w, _ := s.MakespanMachine(); s.CountOn(w) >= h.Iterations {
			t.Fatalf("makespan machine holds %d tasks, want fewer than %d", s.CountOn(w), h.Iterations)
		}
		h2llMatchesReference(t, h, s, 19)
	})
}

// TestH2LLApplyAllocationFree pins that H2LL.Apply allocates nothing
// once its pooled scratch has grown to the shape.
func TestH2LLApplyAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	for _, sh := range []struct{ tasks, machines int }{{512, 16}, {8192, 256}} {
		in := testInstance(t, sh.tasks, sh.machines, uint64(7*sh.tasks+sh.machines))
		r := rng.New(1)
		s := schedule.NewRandom(in, r)
		h := H2LL{Iterations: 10}
		if allocs := testing.AllocsPerRun(50, func() { h.Apply(s, r) }); allocs != 0 {
			t.Errorf("%dx%d: %v allocs per Apply, want 0", sh.tasks, sh.machines, allocs)
		}
	}
}
