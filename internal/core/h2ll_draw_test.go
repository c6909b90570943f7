package core

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"gridsched/internal/etc"
	"gridsched/internal/operators"
	"gridsched/internal/rng"
	"gridsched/internal/schedule"
	"gridsched/internal/solver"
	"gridsched/internal/stats"
)

// reservoirH2LL is H2LL as it stood before the single-draw epoch: the
// linked-list Apply that draws the task off the makespan machine by a
// reservoir over that machine's ascending task list, one Intn per task.
// It is the reference side of TestH2LLDrawDistribution. Each instance
// owns its scratch, so it serves one worker (Threads = 1) at a time.
type reservoirH2LL struct {
	operators.H2LL
	order      []int
	plane      []int32
	head, next []int32
}

func (h *reservoirH2LL) Name() string { return "reservoir-" + h.H2LL.Name() }

// load sorts the machines and links s's assigned tasks into their
// machines' lists in one descending pass over S, so every list comes
// out in ascending task order.
func (h *reservoirH2LL) load(s *schedule.Schedule) {
	m, t := s.Inst.M, len(s.S)
	h.order = s.MachinesByCompletion(h.order)
	if cap(h.plane) < m+t {
		h.plane = make([]int32, m+t)
	}
	h.head, h.next = h.plane[:m], h.plane[m:m+t]
	for i := range h.head {
		h.head[i] = -1
	}
	for task := t - 1; task >= 0; task-- {
		if mac := s.S[task]; mac != schedule.Unassigned {
			h.next[task] = h.head[mac]
			h.head[mac] = int32(task)
		}
	}
}

// move mirrors s.Move(task, to) on the lists and the machine order.
func (h *reservoirH2LL) move(s *schedule.Schedule, prev, task int32, from, to int) {
	head, next := h.head, h.next
	if prev < 0 {
		head[from] = next[task]
	} else {
		next[prev] = next[task]
	}
	p, q := int32(-1), head[to]
	for q >= 0 && q < task {
		p, q = q, next[q]
	}
	next[task] = q
	if p < 0 {
		head[to] = task
	} else {
		next[p] = task
	}

	ct, order := s.CT, h.order
	for i := 1; i < len(order); i++ {
		mac := order[i]
		j := i
		for ; j > 0 && (ct[mac] < ct[order[j-1]] || ct[mac] == ct[order[j-1]] && mac < order[j-1]); j-- {
			order[j] = order[j-1]
		}
		order[j] = mac
	}
}

// Apply implements operators.LocalSearch.
func (h *reservoirH2LL) Apply(s *schedule.Schedule, r *rng.Rand) int {
	if h.Iterations <= 0 {
		return 0
	}
	m := s.Inst.M
	ncand := h.Candidates
	if ncand <= 0 {
		ncand = m / 2
	}
	if ncand > m-1 {
		ncand = m - 1 // never consider the makespan machine itself
	}
	if ncand < 1 {
		return 0
	}
	h.load(s)
	moves := 0
	for it := 0; it < h.Iterations; it++ {
		worst, worstCT := s.MakespanMachine()
		first := h.head[worst]
		if first < 0 {
			break
		}
		task, prev := first, int32(-1)
		for i, p, cur := 0, int32(-1), first; cur >= 0; i, p, cur = i+1, cur, h.next[cur] {
			if r.Intn(i+1) == 0 {
				task, prev = cur, p
			}
		}
		costs := s.Inst.TaskCosts(int(task))
		bestScore := worstCT
		bestMac := -1
		for _, mac := range h.order[:ncand] {
			if score := s.CT[mac] + costs[mac]; score < bestScore {
				bestScore, bestMac = score, mac
			}
		}
		if bestMac >= 0 {
			s.Move(int(task), bestMac)
			h.move(s, prev, task, worst, bestMac)
			moves++
		}
	}
	return moves
}

// TestH2LLDrawDistribution is the distribution-level gate on H2LL's task
// draw. Production H2LL and reservoirH2LL draw the task off the makespan
// machine from the same uniform distribution but consume the RNG
// differently, so their trajectories differ while their outcome
// distributions must not. Both run 1-thread PA-CGA at Table 1
// parameters (H2LL/10) for 5000 evaluations on the 12 Braun classes at
// 512×16 over seeds 1000–1029, and two-sided rank-sum tests compare the
// best makespans and the H2LL move counts: per class at a Bonferroni
// level of 0.01/12, and pooled over all classes (each value divided by
// its class's pooled mean) at 0.01. 1-thread runs are deterministic, so
// the verdict is fixed for a given code state.
func TestH2LLDrawDistribution(t *testing.T) {
	if testing.Short() {
		t.Skip("720 PA-CGA runs (about 20 s); run without -short")
	}
	if raceEnabled {
		t.Skip("720 PA-CGA runs are too slow under the race detector, and the gate checks outcomes, not synchronization")
	}
	const (
		firstSeed = 1000
		nSeeds    = 30
		evals     = 5000
		classP    = 0.01 / 12
		pooledP   = 0.01
	)
	classes := etc.AllClasses()
	insts := make([]*etc.Instance, len(classes))
	for c, cl := range classes {
		in, err := etc.GenerateByName(cl.Name())
		if err != nil {
			t.Fatal(err)
		}
		insts[c] = in
	}
	// Variant 0 is production H2LL, variant 1 the reservoir reference.
	locals := [2]func() operators.LocalSearch{
		func() operators.LocalSearch { return DefaultParams().Local },
		func() operators.LocalSearch {
			return &reservoirH2LL{H2LL: DefaultParams().Local.(operators.H2LL)}
		},
	}
	// makespan[v][c][i] and moves[v][c][i] hold variant v's outcome on
	// class c at seed firstSeed+i.
	var makespan, moves [2][][]float64
	for v := range locals {
		makespan[v], moves[v] = make([][]float64, len(classes)), make([][]float64, len(classes))
		for c := range classes {
			makespan[v][c], moves[v][c] = make([]float64, nSeeds), make([]float64, nSeeds)
		}
	}
	type job struct{ v, c, i int }
	jobs := make(chan job)
	errs := make(chan error, len(locals)*len(classes)*nSeeds)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				p := DefaultParams()
				p.Threads = 1
				p.Seed = uint64(firstSeed + j.i)
				p.Local = locals[j.v]()
				res, err := run(insts[j.c], p, solver.Budget{MaxEvaluations: evals})
				if err != nil {
					errs <- err
					continue
				}
				makespan[j.v][j.c][j.i] = res.BestFitness
				moves[j.v][j.c][j.i] = float64(res.LocalSearchMoves)
			}
		}()
	}
	for v := range locals {
		for c := range classes {
			for i := 0; i < nSeeds; i++ {
				jobs <- job{v, c, i}
			}
		}
	}
	close(jobs)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for _, metric := range []struct {
		name string
		vals [2][][]float64
	}{{"best makespan", makespan}, {"H2LL moves", moves}} {
		var pooled [2][]float64
		minP, minClass := math.Inf(1), ""
		for c, cl := range classes {
			prod, ref := metric.vals[0][c], metric.vals[1][c]
			_, p, err := stats.RankSum(prod, ref)
			if err != nil {
				t.Fatal(err)
			}
			if p < minP {
				minP, minClass = p, cl.Name()
			}
			if p < classP {
				t.Errorf("%s on %s: rank-sum p = %.3g < %.3g (production mean %.6g, reservoir mean %.6g)",
					metric.name, cl.Name(), p, classP, stats.Mean(prod), stats.Mean(ref))
			}
			mean := (stats.Mean(prod) + stats.Mean(ref)) / 2
			for i := range prod {
				pooled[0] = append(pooled[0], prod[i]/mean)
				pooled[1] = append(pooled[1], ref[i]/mean)
			}
		}
		_, p, err := stats.RankSum(pooled[0], pooled[1])
		if err != nil {
			t.Fatal(err)
		}
		if p < pooledP {
			t.Errorf("%s pooled over classes: rank-sum p = %.3g < %.3g", metric.name, p, pooledP)
		}
		t.Logf("%s: min per-class p %.3g (%s), pooled p %.3g, mean production/reservoir ratio %.4f",
			metric.name, minP, minClass, p, stats.Mean(pooled[0])/stats.Mean(pooled[1]))
	}
}
