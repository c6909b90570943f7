package operators

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"gridsched/internal/etc"
	"gridsched/internal/rng"
	"gridsched/internal/schedule"
)

// referenceH2LLApply is the scalar reference of H2LL: each iteration
// finds the makespan machine with MakespanMachine's scan of CT, draws
// its task with a taskDraw of its own (the one draw production H2LL
// shares: rejection over S, then a per-call list of a machine whose
// sample missed), takes the least-loaded candidates as the prefix of a
// full MachinesByCompletion sort and walks them in order with
// per-element strict comparisons.
// The production Apply instead keeps one (CT, index) machine order per
// call, re-sorted from its previous call's and repositioned per move;
// this reference pins that the makespan machine, the candidate order
// and the destination it yields are bit-identical.
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
	draw := taskDraw{mac: -1}
	moves := 0
	for it := 0; it < h.Iterations; it++ {
		worst, worstCT := s.MakespanMachine()
		task, ti := draw.pick(s, worst, r)
		if task < 0 {
			break
		}
		cand = s.MachinesByCompletion(cand)[:ncand]
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
			draw.moved(task, ti, bestMac)
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
// edge cases of the makespan-machine order: partial schedules, a
// makespan machine that holds no task, and more iterations than the
// makespan machine has tasks.
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
	// the makespan, then must stop early at the empty machine. With the
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

	// Small-integer ETC makes completion-time ties common, so the
	// (CT, index) tie-break decides both the candidate order and which
	// of two equally good destinations a task goes to.
	t.Run("ct-ties", func(t *testing.T) {
		for _, sh := range []struct{ tasks, machines int }{{64, 8}, {300, 40}} {
			in := smallIntInstance(t, sh.tasks, sh.machines, 3, uint64(sh.machines))
			for _, ncand := range []int{0, 1, sh.machines - 1} {
				s := schedule.NewRandom(in, rng.New(uint64(sh.tasks+ncand)))
				h2llMatchesReference(t, H2LL{Iterations: 40, Candidates: ncand}, s, uint64(ncand)+9)
			}
		}
	})

	// 40 tasks over 10 machines: 200 iterations far exceed any machine's
	// task count, so machines drain and refill repeatedly.
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

// smallIntInstance builds a tasks×machines instance whose ETC entries
// are integers in [1, hi], so equal completion times are common.
func smallIntInstance(t testing.TB, tasks, machines, hi int, seed uint64) *etc.Instance {
	t.Helper()
	r := rng.New(seed)
	row := make([]float64, tasks*machines)
	for i := range row {
		row[i] = float64(1 + r.Intn(hi))
	}
	in, err := etc.New(fmt.Sprintf("int%d_%dx%d", hi, tasks, machines), tasks, machines, row)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// requireScratchMatches fails unless ws holds s's machine order
// (MachinesByCompletion) and, if its draw lists a machine, exactly that
// machine's tasks.
func requireScratchMatches(t *testing.T, label string, ws *h2llScratch, s *schedule.Schedule) {
	t.Helper()
	if want := s.MachinesByCompletion(nil); !slices.Equal(ws.order, want) {
		t.Fatalf("%s: order %v, MachinesByCompletion %v", label, ws.order, want)
	}
	if d := ws.draw; d.mac >= 0 {
		if got, want := slices.Sorted(slices.Values(d.tasks)), s.TasksOn(d.mac, nil); !slices.Equal(got, want) {
			t.Fatalf("%s: machine %d listed as %v, holds %v", label, d.mac, got, want)
		}
	}
}

// TestH2LLScratchOrderProperty checks the incremental machine order of
// h2llScratch against a fresh MachinesByCompletion sort: after load
// re-sorts an order left by a different schedule, and after every one
// of a series of random moves, each of which repositions only the two
// machines whose completion times changed. Across the same moves, many
// of them off or onto the listed machine, the task draw's list must
// keep matching that machine's tasks. The instances cover
// small-integer ETC (many CT ties), an empty machine whose completion
// time is its ready time alone, and a 256-machine shape.
func TestH2LLScratchOrderProperty(t *testing.T) {
	tied := smallIntInstance(t, 96, 12, 3, 1)
	ready := make([]float64, tied.M)
	ready[5] = 40
	readyOnly, err := tied.WithReady(ready)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		in    *etc.Instance
		empty int // a machine holding no task, or -1
	}{
		{"ties", tied, -1},
		{"ready-only", readyOnly, 5},
		{"braun-512x16", testInstance(t, 512, 16, 3), -1},
		{"braun-1024x256", testInstance(t, 1024, 256, 4), -1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := rng.New(uint64(len(c.name)))
			random := func() *schedule.Schedule {
				s := schedule.New(c.in)
				for task := range s.S {
					m := r.Intn(c.in.M)
					for m == c.empty {
						m = r.Intn(c.in.M)
					}
					s.Assign(task, m)
				}
				return s
			}
			ws := &h2llScratch{draw: taskDraw{mac: -1}}
			first := random()
			ws.load(first)
			requireScratchMatches(t, "first load", ws, first)
			for round := 0; round < 5; round++ {
				s := random()
				ws.load(s) // re-sorts the previous schedule's order
				ws.draw.mac = -1
				requireScratchMatches(t, fmt.Sprintf("round %d load", round), ws, s)
				for mv := 0; mv < 60; mv++ {
					if mv%10 == 0 {
						m := r.Intn(c.in.M)
						ws.draw = taskDraw{mac: m, tasks: s.TasksOn(m, ws.draw.tasks[:0])}
					}
					task := r.Intn(len(s.S))
					if d := ws.draw; len(d.tasks) > 0 && r.Bool(0.3) {
						task = d.tasks[r.Intn(len(d.tasks))]
					}
					from := s.S[task]
					to := r.Intn(c.in.M - 1)
					if to >= from {
						to++
					}
					if from != ws.draw.mac && r.Bool(0.3) {
						to = ws.draw.mac
					}
					i := -1
					if from == ws.draw.mac {
						i = slices.Index(ws.draw.tasks, task)
					}
					s.Move(task, to)
					ws.move(s, from, to, slices.Index(ws.order, to))
					ws.draw.moved(task, i, to)
					requireScratchMatches(t, fmt.Sprintf("round %d move %d", round, mv), ws, s)
				}
			}
		})
	}
}
