// Package operators implements the variation operators of §3.3: parent
// selection over a neighborhood, one-point / two-point / uniform
// crossover, the move mutation, replacement policies, and the paper's new
// H2LL local search. All operators maintain the schedule's incremental
// completion-time invariant: they never trigger a full re-evaluation.
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
// winner; a standard alternative selection kept for ablations.
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

// CenterPlusBest always mates the center individual (candidate 0 by
// convention) with the best of the rest; common in cellular GA variants
// where the current individual is one parent.
type CenterPlusBest struct{}

// Name implements Selector.
func (CenterPlusBest) Name() string { return "center+best" }

// Select implements Selector.
func (CenterPlusBest) Select(cands []Candidate, _ *rng.Rand) (int, int) {
	if len(cands) == 0 {
		panic("operators: CenterPlusBest over empty candidate set")
	}
	if len(cands) == 1 {
		return 0, 0
	}
	best := 1
	for i := 2; i < len(cands); i++ {
		if cands[i].Fitness < cands[best].Fitness {
			best = i
		}
	}
	return 0, best
}

// Crossover recombines two parents into an offspring. The child schedule
// is caller-provided workspace targeting the same instance; Cross fully
// overwrites it (assignment and completion times) without allocating.
type Crossover interface {
	Name() string
	Cross(child, p1, p2 *schedule.Schedule, r *rng.Rand)
}

// OnePoint is the opx operator: the child takes p1's assignments before a
// random cut point and p2's from the cut point on. CT is repaired
// incrementally: starting from a copy of p1, only the suffix genes that
// differ cause O(1) updates.
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
	for t := cut; t < n; t++ {
		child.SetAssignment(t, p2.S[t])
	}
}

// TwoPoint is the tpx operator: the child takes p2's assignments inside a
// random window [a, b) and p1's elsewhere.
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
	for t := a; t < b; t++ {
		child.SetAssignment(t, p2.S[t])
	}
}

// Uniform takes each gene from either parent with probability ½; kept
// for operator studies beyond the paper's opx/tpx pair.
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

// Replacement decides whether the offspring replaces the current
// individual.
type Replacement int

const (
	// ReplaceIfBetter installs the offspring only on strict makespan
	// improvement — the paper's policy (Table 1).
	ReplaceIfBetter Replacement = iota
	// ReplaceIfBetterOrEqual also accepts equal fitness, allowing
	// neutral drift across plateaus.
	ReplaceIfBetterOrEqual
	// ReplaceAlways installs the offspring unconditionally.
	ReplaceAlways
)

// String implements fmt.Stringer.
func (p Replacement) String() string {
	switch p {
	case ReplaceIfBetter:
		return "if-better"
	case ReplaceIfBetterOrEqual:
		return "if-better-or-equal"
	case ReplaceAlways:
		return "always"
	default:
		return fmt.Sprintf("Replacement(%d)", int(p))
	}
}

// ParseReplacement resolves replacement-policy names.
func ParseReplacement(name string) (Replacement, error) {
	switch name {
	case "if-better":
		return ReplaceIfBetter, nil
	case "if-better-or-equal":
		return ReplaceIfBetterOrEqual, nil
	case "always":
		return ReplaceAlways, nil
	}
	return 0, fmt.Errorf("operators: unknown replacement %q", name)
}

// Accepts reports whether an offspring with the given makespan replaces a
// current individual with makespan cur.
func (p Replacement) Accepts(cur, offspring float64) bool {
	switch p {
	case ReplaceIfBetter:
		return offspring < cur
	case ReplaceIfBetterOrEqual:
		return offspring <= cur
	case ReplaceAlways:
		return true
	default:
		panic(fmt.Sprintf("operators: unknown replacement %d", int(p)))
	}
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

// h2llScratch is the pooled per-call state of H2LL.Apply: the machine
// order and the per-machine task buckets that let each iteration skip
// the O(tasks) scan of the assignment vector and the re-ranking of the
// machines. Pooling keeps Apply — called once per offspring on every
// worker — off the allocator: after warm-up at a shape it allocates
// nothing.
type h2llScratch struct {
	// order holds the machines in ascending (CT, index) order; the
	// candidate set is its prefix.
	order []int
	// plane backs start, count and tasks in one allocation. tasks holds
	// the task buckets: machine m's tasks, in ascending order, are
	// tasks[start[m] : start[m]+count[m]].
	plane               []int32
	start, count, tasks []int32
}

var h2llPool = sync.Pool{New: func() any { return new(h2llScratch) }}

// load sorts the machines and buckets s's assigned tasks by machine.
// Each of the iters iterations moves at most one task, so bucket m gets
// room for count[m]+iters entries (never more than all tasks) and an
// insert cannot overflow into the next bucket.
func (ws *h2llScratch) load(s *schedule.Schedule, iters int) {
	m, t := s.Inst.M, len(s.S)
	ws.order = s.MachinesByCompletion(ws.order)
	n := 2*m + min(t+m*min(iters, t), m*t)
	if cap(ws.plane) < n {
		ws.plane = make([]int32, n)
	}
	ws.start, ws.count, ws.tasks = ws.plane[:m], ws.plane[m:2*m], ws.plane[2*m:n]
	clear(ws.count)
	for _, mac := range s.S {
		if mac != schedule.Unassigned {
			ws.count[mac]++
		}
	}
	next := int32(0)
	for mac, c := range ws.count {
		ws.start[mac] = next
		next += int32(min(int(c)+iters, t))
	}
	clear(ws.count)
	for task, mac := range s.S {
		if mac != schedule.Unassigned {
			ws.tasks[ws.start[mac]+ws.count[mac]] = int32(task)
			ws.count[mac]++
		}
	}
}

// bucket returns machine m's tasks in ascending order.
func (ws *h2llScratch) bucket(m int) []int32 {
	return ws.tasks[ws.start[m] : ws.start[m]+ws.count[m]]
}

// move mirrors s.Move(task, to) for the task at index i of machine
// from's bucket: it deletes the task there, inserts it in order into
// machine to's bucket, and restores the (CT, index) machine order by one
// insertion pass — O(M) plus the two displacements, since only from's
// and to's completion times changed.
func (ws *h2llScratch) move(s *schedule.Schedule, i, from, to int) {
	b := ws.bucket(from)
	task := b[i]
	copy(b[i:], b[i+1:])
	ws.count[from]--
	b = ws.tasks[ws.start[to] : ws.start[to]+ws.count[to]+1]
	j := len(b) - 1
	for ; j > 0 && b[j-1] > task; j-- {
		b[j] = b[j-1]
	}
	b[j] = task
	ws.count[to]++

	ct, order := s.CT, ws.order
	for i := 1; i < len(order); i++ {
		mac := order[i]
		j := i
		for ; j > 0 && (ct[mac] < ct[order[j-1]] || ct[mac] == ct[order[j-1]] && mac < order[j-1]); j-- {
			order[j] = order[j-1]
		}
		order[j] = mac
	}
}

// Apply implements LocalSearch. The O(tasks) and O(M log M) work happens
// once per call: load buckets the tasks by machine and sorts the
// machines by (CT, index). Each iteration then reads the makespan
// machine in O(1) from the schedule's max index, draws its task by the
// reservoir of Schedule.RandomTaskOn run over that machine's bucket (the
// same draws and the same winner as the full scan, since the bucket is
// in ascending task order), and walks the Candidates least-loaded
// machines in ascending (CT, index) order, keeping the first strictly
// smallest new completion time. A move updates the buckets and the
// order incrementally, so an iteration costs O(tasks on the makespan
// machine + M).
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
	ws.load(s, h.Iterations)
	moves := 0
	for it := 0; it < h.Iterations; it++ {
		worst, worstCT := s.MakespanMachine()
		tasks := ws.bucket(worst)
		if len(tasks) == 0 {
			// The makespan machine holds no task (all load is ready
			// time); nothing can move, and further iterations would pick
			// the same machine.
			break
		}
		pick := 0
		for i := range tasks {
			if r.Intn(i+1) == 0 {
				pick = i
			}
		}
		task := int(tasks[pick])
		costs := s.Inst.TaskCosts(task)
		// A candidate can tie-collide with the makespan machine itself;
		// the strict < against worstCT (ETC is positive) keeps self-moves
		// impossible.
		bestScore := worstCT
		bestMac := -1
		for _, mac := range ws.order[:ncand] {
			if score := s.CT[mac] + costs[mac]; score < bestScore {
				bestScore, bestMac = score, mac
			}
		}
		if bestMac >= 0 {
			s.Move(task, bestMac)
			ws.move(s, pick, worst, bestMac)
			moves++
		}
	}
	return moves
}

// NullSearch is a LocalSearch that does nothing; used where an explicit
// "no local search" value reads better than H2LL{Iterations: 0}.
type NullSearch struct{}

// Name implements LocalSearch.
func (NullSearch) Name() string { return "none" }

// Apply implements LocalSearch.
func (NullSearch) Apply(*schedule.Schedule, *rng.Rand) int { return 0 }
