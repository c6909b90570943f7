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
// differ cause compensated updates, and Schedule.SetRange rebuilds the
// makespan index once for the whole suffix.
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
// order and one counted, linked task list per machine, which let each
// iteration skip the O(tasks) scan of the assignment vector and the
// re-ranking of the machines. Pooling keeps Apply — called once per
// offspring on every worker — off the allocator: after warm-up at a
// shape it allocates nothing.
type h2llScratch struct {
	// order holds the machines in ascending (CT, index) order; the
	// candidate set is its prefix.
	order []int
	// plane backs head, cnt and next in one allocation of
	// 2·machines+tasks entries. Machine m's cnt[m] tasks, in ascending
	// order, are head[m], next[head[m]], …, up to a -1; next of an
	// unassigned task is unused.
	plane           []int32
	head, cnt, next []int32
}

var h2llPool = sync.Pool{New: func() any { return new(h2llScratch) }}

// load sorts the machines and links and counts s's assigned tasks into
// their machines' lists in one descending pass over S, so every list
// comes out in ascending task order.
func (ws *h2llScratch) load(s *schedule.Schedule) {
	m, t := s.Inst.M, len(s.S)
	ws.order = s.MachinesByCompletion(ws.order)
	if cap(ws.plane) < 2*m+t {
		ws.plane = make([]int32, 2*m+t)
	}
	ws.head, ws.cnt, ws.next = ws.plane[:m], ws.plane[m:2*m], ws.plane[2*m:2*m+t]
	for i := range ws.head {
		ws.head[i] = -1
		ws.cnt[i] = 0
	}
	for task := t - 1; task >= 0; task-- {
		if mac := s.S[task]; mac != schedule.Unassigned {
			ws.next[task] = ws.head[mac]
			ws.head[mac] = int32(task)
			ws.cnt[mac]++
		}
	}
}

// move mirrors s.Move(task, to) for a task of machine from's list whose
// predecessor there is prev (-1 for the head): it unlinks the task,
// links it in ascending position into machine to's list, and restores
// the (CT, index) machine order by one insertion pass — O(M) plus the
// walk of to's list, since only from's and to's completion times
// changed.
func (ws *h2llScratch) move(s *schedule.Schedule, prev, task int32, from, to int) {
	head, next := ws.head, ws.next
	if prev < 0 {
		head[from] = next[task]
	} else {
		next[prev] = next[task]
	}
	ws.cnt[from]--
	ws.cnt[to]++
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
// once per call: load links the tasks into counted per-machine lists and
// sorts the machines by (CT, index). Each iteration then reads the
// makespan machine in O(1) from the schedule's max index, picks its
// task by Schedule.RandomTaskOn's rule (k := r.Intn(count), then k
// links down the machine's ascending list), and scans the Candidates
// least-loaded machines in ascending (CT, index) order, keeping the
// first strictly smallest new completion time. A
// move relinks the task and updates the counts and the order
// incrementally, so an iteration costs O(tasks on the makespan machine
// and the destination + M).
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
	moves := 0
	for it := 0; it < h.Iterations; it++ {
		worst, worstCT := s.MakespanMachine()
		n := ws.cnt[worst]
		if n == 0 {
			// The makespan machine holds no task (all load is ready
			// time); nothing can move, and further iterations would pick
			// the same machine.
			break
		}
		task, prev := ws.head[worst], int32(-1)
		for k := r.Intn(int(n)); k > 0; k-- {
			task, prev = ws.next[task], task
		}
		costs := s.Inst.TaskCosts(int(task))
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
			s.Move(int(task), bestMac)
			ws.move(s, prev, task, worst, bestMac)
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
