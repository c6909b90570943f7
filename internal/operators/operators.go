// Package operators implements the variation operators of §3.3: parent
// selection over a neighborhood, one-point / two-point / uniform
// crossover, the move mutation and the paper's new H2LL local search.
// All operators maintain the schedule's incremental completion-time
// invariant: they never trigger a full re-evaluation.
package operators

import (
	"fmt"
	"sync"

	"gridsched/internal/rng"
	"gridsched/internal/schedule"
)

// Candidate is one member of a mating neighborhood: the population cell
// it came from and its fitness (makespan; lower is better).
type Candidate struct {
	Cell    int
	Fitness float64
}

// Selector chooses two parents among neighborhood candidates, returning
// indices into the candidate slice. Implementations must handle slices
// with at least one entry; with a single entry both parents coincide.
type Selector interface {
	Name() string
	Select(cands []Candidate, r *rng.Rand) (p1, p2 int)
}

// BestTwo selects the two candidates with the lowest makespan — the
// paper's "best 2" selection (Table 1). Ties break on cell order,
// keeping selection deterministic for a fixed neighborhood.
type BestTwo struct{}

// Name implements Selector.
func (BestTwo) Name() string { return "best2" }

// Select implements Selector.
func (BestTwo) Select(cands []Candidate, _ *rng.Rand) (int, int) {
	if len(cands) == 0 {
		panic("operators: BestTwo over empty candidate set")
	}
	if len(cands) == 1 {
		return 0, 0
	}
	best := 0
	for i := 1; i < len(cands); i++ {
		if cands[i].Fitness < cands[best].Fitness {
			best = i
		}
	}
	second := -1
	for i := range cands {
		if i == best {
			continue
		}
		if second < 0 || cands[i].Fitness < cands[second].Fitness {
			second = i
		}
	}
	return best, second
}

// BinaryTournament draws two independent pairs and keeps each pair's
// winner. The cMA-LTH baseline and the diversity study select with it.
type BinaryTournament struct{}

// Name implements Selector.
func (BinaryTournament) Name() string { return "tournament2" }

// Select implements Selector.
func (BinaryTournament) Select(cands []Candidate, r *rng.Rand) (int, int) {
	if len(cands) == 0 {
		panic("operators: BinaryTournament over empty candidate set")
	}
	pick := func() int {
		a := r.Intn(len(cands))
		b := r.Intn(len(cands))
		if cands[b].Fitness < cands[a].Fitness {
			return b
		}
		return a
	}
	return pick(), pick()
}

// Crossover recombines two parents into an offspring. The child schedule
// is caller-provided workspace targeting the same instance; Cross fully
// overwrites it (assignment and completion times) without allocating.
// p1 may alias child: Cross(child, child, p2, r) recombines in place and
// gives the same child, with the same RNG draws, as crossing a separate
// copy of p1. When p1 aliases child, p2 may alias it too (a parent
// crossed with itself).
type Crossover interface {
	Name() string
	Cross(child, p1, p2 *schedule.Schedule, r *rng.Rand)
}

// OnePoint is the opx operator: the child takes p1's assignments before a
// random cut point and p2's from the cut point on. CT is repaired
// incrementally: starting from a copy of p1, Schedule.SetRange copies
// the suffix, and only the genes that differ cause compensated updates.
type OnePoint struct{}

// Name implements Crossover.
func (OnePoint) Name() string { return "opx" }

// Cross implements Crossover.
func (OnePoint) Cross(child, p1, p2 *schedule.Schedule, r *rng.Rand) {
	n := len(p1.S)
	child.CopyFrom(p1)
	if n < 2 {
		return
	}
	cut := 1 + r.Intn(n-1) // cut in [1, n-1]: both parents contribute
	child.SetRange(cut, p2.S[cut:])
}

// TwoPoint is the tpx operator: the child takes p2's assignments inside a
// random window [a, b) and p1's elsewhere, copied by one
// Schedule.SetRange like OnePoint's suffix.
type TwoPoint struct{}

// Name implements Crossover.
func (TwoPoint) Name() string { return "tpx" }

// Cross implements Crossover.
func (TwoPoint) Cross(child, p1, p2 *schedule.Schedule, r *rng.Rand) {
	n := len(p1.S)
	child.CopyFrom(p1)
	if n < 2 {
		return
	}
	a := r.Intn(n)
	b := r.Intn(n)
	if a > b {
		a, b = b, a
	}
	if a == b { // force a non-empty window so the operator is not a no-op
		if b < n-1 {
			b++
		} else {
			a--
		}
	}
	child.SetRange(a, p2.S[a:b])
}

// Uniform takes each gene from either parent with probability ½; kept
// for operator studies beyond the paper's opx/tpx pair. Its genes are
// not contiguous, so it updates them one SetAssignment at a time.
type Uniform struct{}

// Name implements Crossover.
func (Uniform) Name() string { return "ux" }

// Cross implements Crossover.
func (Uniform) Cross(child, p1, p2 *schedule.Schedule, r *rng.Rand) {
	child.CopyFrom(p1)
	for t := range p1.S {
		if r.Bool(0.5) {
			child.SetAssignment(t, p2.S[t])
		}
	}
}

// ParseCrossover resolves operator names used on command lines.
func ParseCrossover(name string) (Crossover, error) {
	switch name {
	case "opx", "one-point":
		return OnePoint{}, nil
	case "tpx", "two-point":
		return TwoPoint{}, nil
	case "ux", "uniform":
		return Uniform{}, nil
	}
	return nil, fmt.Errorf("operators: unknown crossover %q", name)
}

// Mutation perturbs a schedule in place, maintaining CT incrementally.
type Mutation interface {
	Name() string
	Mutate(s *schedule.Schedule, r *rng.Rand)
}

// Move is the paper's mutation: one randomly chosen task moves to a
// randomly chosen machine (Table 1).
type Move struct{}

// Name implements Mutation.
func (Move) Name() string { return "move" }

// Mutate implements Mutation.
func (Move) Mutate(s *schedule.Schedule, r *rng.Rand) {
	t := r.Intn(len(s.S))
	s.Move(t, r.Intn(s.Inst.M))
}

// Swap exchanges the machines of two randomly chosen tasks.
type Swap struct{}

// Name implements Mutation.
func (Swap) Name() string { return "swap" }

// Mutate implements Mutation.
func (Swap) Mutate(s *schedule.Schedule, r *rng.Rand) {
	if len(s.S) < 2 {
		return
	}
	a := r.Intn(len(s.S))
	b := r.Intn(len(s.S))
	for b == a {
		b = r.Intn(len(s.S))
	}
	ma, mb := s.S[a], s.S[b]
	s.Move(a, mb)
	s.Move(b, ma)
}

// Rebalance moves a random task from the makespan machine to the least
// loaded machine — a greedy mutation that complements H2LL in ablations.
type Rebalance struct{}

// Name implements Mutation.
func (Rebalance) Name() string { return "rebalance" }

// Mutate implements Mutation.
func (Rebalance) Mutate(s *schedule.Schedule, r *rng.Rand) {
	worst, _ := s.MakespanMachine()
	task := s.RandomTaskOn(worst, r)
	if task < 0 {
		return
	}
	best := 0
	for m := 1; m < s.Inst.M; m++ {
		if s.CT[m] < s.CT[best] {
			best = m
		}
	}
	s.Move(task, best)
}

// ParseMutation resolves mutation names used on command lines.
func ParseMutation(name string) (Mutation, error) {
	switch name {
	case "move":
		return Move{}, nil
	case "swap":
		return Swap{}, nil
	case "rebalance":
		return Rebalance{}, nil
	}
	return nil, fmt.Errorf("operators: unknown mutation %q", name)
}

// LocalSearch improves a schedule in place and reports how many improving
// moves it made.
type LocalSearch interface {
	Name() string
	Apply(s *schedule.Schedule, r *rng.Rand) (moves int)
}

// H2LL is the paper's new local search operator (Algorithm 4), "High to
// Low Load": each iteration picks a random task on the most loaded
// machine (which defines the makespan) and moves it to whichever of the
// Candidates least-loaded machines ends up with the smallest new
// completion time, provided that new completion time stays below the
// current makespan. Completion times stay incremental throughout.
type H2LL struct {
	// Iterations is the number of passes (the paper evaluates 5 and 10;
	// 0 disables the operator entirely, the Fig. 4 "0 iteration" series).
	Iterations int
	// Candidates is the size N of the least-loaded candidate set; 0
	// means machines/2, the value implied by Algorithm 4.
	Candidates int
}

// Name implements LocalSearch.
func (h H2LL) Name() string { return fmt.Sprintf("h2ll/%d", h.Iterations) }

// h2llScratch is the pooled per-call state of H2LL.Apply: the machines
// in ascending (CT, index) order, whose prefix is the candidate set and
// whose right end is the makespan machine, so no iteration re-ranks the
// machines, and the task draw. Between calls the order keeps the last
// schedule's, which load re-sorts from. Pooling keeps Apply — called
// once per offspring on every worker — off the allocator: after warm-up
// at a shape it allocates nothing.
type h2llScratch struct {
	order []int
	draw  taskDraw
}

// taskDraw is H2LL's task draw within one call, uniform over the tasks
// of the machine it is asked for. It samples by Schedule.SampleTaskOn;
// when that misses, one scan lists the machine's tasks in ascending
// order and tasks[Intn(n)] is the draw (no draw for an empty machine),
// exactly RandomTaskOn's fallback. The list is kept for the rest of the
// call: later draws on that machine take tasks[Intn(n)] straight away,
// and moved keeps the list exact. So a makespan machine with few tasks,
// which H2LL draws from again and again once it stalls, costs one scan
// per call, not one per iteration. Every branch draws afresh, so each
// draw is uniform over the machine's tasks.
type taskDraw struct {
	mac   int   // the listed machine, or -1
	tasks []int // mac's tasks
}

// pick returns a uniformly drawn task of machine m and its index in the
// list, or -1 there when it came from SampleTaskOn; task is -1 when m
// holds no task.
func (d *taskDraw) pick(s *schedule.Schedule, m int, r *rng.Rand) (task, i int) {
	if m != d.mac {
		if task := s.SampleTaskOn(m, r); task >= 0 {
			return task, -1
		}
		d.mac, d.tasks = m, s.TasksOn(m, d.tasks[:0])
	}
	if len(d.tasks) == 0 {
		return -1, -1
	}
	i = r.Intn(len(d.tasks))
	return d.tasks[i], i
}

// moved mirrors s.Move(task, to) for a task that pick returned at list
// index i: a listed task leaves the list by swap-remove, and a task
// moving onto the listed machine is appended.
func (d *taskDraw) moved(task, i, to int) {
	if i >= 0 {
		last := len(d.tasks) - 1
		d.tasks[i] = d.tasks[last]
		d.tasks = d.tasks[:last]
	}
	if to == d.mac {
		d.tasks = append(d.tasks, task)
	}
}

var h2llPool = sync.Pool{New: func() any { return new(h2llScratch) }}

// machineBefore is the (CT, index) order of h2llScratch.order, the
// total order of Schedule.MachinesByCompletion.
func machineBefore(ct []float64, a, b int) bool {
	return ct[a] < ct[b] || ct[a] == ct[b] && a < b
}

// load orders s's machines. It insertion-sorts the order the scratch
// already holds: offspring bred one after another come from
// neighbouring parents, so their machine orders differ in few places
// and few machines move. Only when the machine count changed does it
// start over with MachinesByCompletion's heap sort. (CT, index) is a
// total order, so either way the result is the same unique sorted order.
func (ws *h2llScratch) load(s *schedule.Schedule) {
	if len(ws.order) != s.Inst.M {
		ws.order = s.MachinesByCompletion(ws.order)
		return
	}
	ct, order := s.CT, ws.order
	for i := 1; i < len(order); i++ {
		mac := order[i]
		j := i
		for ; j > 0 && machineBefore(ct, mac, order[j-1]); j-- {
			order[j] = order[j-1]
		}
		order[j] = mac
	}
}

// move restores the (CT, index) order after s.Move took a task from
// machine from to machine to, which sat at position toPos. Only those
// two completion times changed, and each in one direction: ETC is
// positive and the compensated update rounds monotonically, so to's
// rose and from's fell. to therefore bubbles right from toPos; from,
// then found by a scan from the right end (the makespan machine sits
// there, behind at most its CT ties and to), bubbles left. Passing each
// other is fine: once to has moved, the order is sorted but for from,
// whose leftward pass finishes the job. The cost is the distances the
// two machines travel, not O(M).
func (ws *h2llScratch) move(s *schedule.Schedule, from, to, toPos int) {
	ct, order := s.CT, ws.order
	i := toPos
	for ; i+1 < len(order) && machineBefore(ct, order[i+1], to); i++ {
		order[i] = order[i+1]
	}
	order[i] = to
	i = len(order) - 1
	for order[i] != from {
		i--
	}
	for ; i > 0 && machineBefore(ct, from, order[i-1]); i-- {
		order[i] = order[i-1]
	}
	order[i] = from
}

// Apply implements LocalSearch. Once per call, load re-sorts the
// machines by (CT, index) from the pooled order of the previous call,
// which costs O(M) plus one shift per pair of machines whose relative
// order changed. Each iteration then reads the makespan machine off the
// right end of that order, walking left over CT ties to the lowest
// index (Schedule.MakespanMachine's rule), draws its task with
// taskDraw (rejection over S, about M candidates for a machine with a
// fair share of the tasks), and scans the Candidates least-loaded
// machines in ascending (CT, index) order, keeping the first strictly
// smallest new completion time. A move repositions the two machines
// whose completion times changed and updates the draw's list. No step
// of an iteration passes over S unless a sample misses and the draw
// lists the machine, at most once per machine in a row; that is also
// how an empty makespan machine ends the call.
func (h H2LL) Apply(s *schedule.Schedule, r *rng.Rand) int {
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
	ws := h2llPool.Get().(*h2llScratch)
	defer h2llPool.Put(ws)
	ws.load(s)
	ws.draw.mac = -1
	moves := 0
	for it := 0; it < h.Iterations; it++ {
		w := m - 1
		worstCT := s.CT[ws.order[w]]
		for w > 0 && s.CT[ws.order[w-1]] == worstCT {
			w--
		}
		worst := ws.order[w]
		task, ti := ws.draw.pick(s, worst, r)
		if task < 0 {
			// The makespan machine holds no task (all load is ready
			// time); nothing can move, and further iterations would pick
			// the same machine.
			break
		}
		costs := s.Inst.TaskCosts(task)
		// A candidate can tie-collide with the makespan machine itself;
		// the strict < against worstCT (ETC is positive) keeps self-moves
		// impossible.
		bestScore := worstCT
		bestMac, bestPos := -1, 0
		for i, mac := range ws.order[:ncand] {
			if score := s.CT[mac] + costs[mac]; score < bestScore {
				bestScore, bestMac, bestPos = score, mac, i
			}
		}
		if bestMac >= 0 {
			s.Move(task, bestMac)
			ws.move(s, worst, bestMac, bestPos)
			ws.draw.moved(task, ti, bestMac)
			moves++
		}
	}
	return moves
}
