// Package schedule implements the solution representation of §3.3: a
// task→machine assignment vector S together with a per-machine
// completion-time vector CT that every operator keeps up to date
// incrementally, so that evaluating a schedule never re-sums ETC
// entries.
//
// # Indexed completion-time engine
//
// Two structures back the incremental bookkeeping:
//
//   - CT is maintained with compensated (double-double) accumulation:
//     next to every CT[m] lives a low-order word ctLo[m] such that the
//     unevaluated sum CT[m]+ctLo[m] carries roughly twice the precision
//     of a float64. Each update performs an error-free transformation
//     (TwoSum) and folds the rounding error into the low word, so the
//     incremental completion times provably track RecomputeCT instead
//     of drifting by a random walk of rounding errors over long
//     tabu/steady-state runs. See DriftBound for the resulting bound.
//
//   - A tournament tree indexes the machine with the maximum completion
//     time, making Makespan and MakespanMachine O(1) reads. Updates
//     repair the tree bottom-up in O(log machines) worst case, and stop
//     early at the first node whose winner is unaffected, which makes
//     the common case (a move that does not touch the makespan machine)
//     O(1) in practice.
package schedule

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"gridsched/internal/etc"
	"gridsched/internal/rng"
)

// Unassigned marks a task that has not been placed on any machine yet.
const Unassigned = -1

// epsilon is the float64 machine epsilon (ulp of 1.0): the unit of the
// relative error bounds documented on Validate and DriftBound.
const epsilon = 0x1p-52

// Schedule is a (possibly partial) solution for one ETC instance.
//
// Invariant: for every machine m,
//
//	CT[m] = ready[m] + Σ_{t : S[t]=m} ETC[t][m]
//
// maintained incrementally by Assign, Move and Unassign with
// compensated accumulation, and indexed by a tournament tree so the
// maximum is available in O(1). The invariant is checked exhaustively
// by Validate and by the property tests.
//
// CT is exported for read access; all mutation must go through the
// methods so that the compensation terms and the max index stay
// consistent with it.
type Schedule struct {
	Inst *etc.Instance
	S    []int     // S[t] = machine of task t, or Unassigned
	CT   []float64 // completion time per machine

	// ctLo holds the low-order words of the double-double completion
	// times: CT[m]+ctLo[m] is the compensated sum, CT[m] its correctly
	// rounded head.
	ctLo []float64
	// tree is the tournament tree over machines: tree[1] is the index
	// of the machine with the maximum CT (ties toward the lowest
	// index), leaves start at tree[leaf], and empty slots hold -1.
	tree []int32
	leaf int
}

// New returns an empty schedule (all tasks unassigned, CT = ready times).
func New(inst *etc.Instance) *Schedule {
	leaf := 1
	for leaf < inst.M {
		leaf <<= 1
	}
	s := &Schedule{
		Inst: inst,
		S:    make([]int, inst.T),
		CT:   make([]float64, inst.M),
		ctLo: make([]float64, inst.M),
		tree: make([]int32, 2*leaf),
		leaf: leaf,
	}
	for t := range s.S {
		s.S[t] = Unassigned
	}
	copy(s.CT, inst.Ready)
	s.rebuildTree()
	return s
}

// NewRandom returns a complete schedule assigning every task to a machine
// drawn uniformly at random; this is how the paper initializes all but
// one individual of the population. The machines are drawn in ascending
// task order — the exact RNG consumption of a per-task Assign loop —
// and CT is then built in one task-ordered pass over the row layout,
// which is bit-identical to sequential Assign calls (see loadFromS).
func NewRandom(inst *etc.Instance, r *rng.Rand) *Schedule {
	s := New(inst)
	s.Randomize(r)
	return s
}

// Randomize re-assigns every task to a uniformly random machine in
// place — NewRandom for preallocated (arena) schedules, with the same
// RNG consumption and bit-identical resulting state.
func (s *Schedule) Randomize(r *rng.Rand) {
	for t := range s.S {
		s.S[t] = r.Intn(s.Inst.M)
	}
	s.loadFromS()
}

// FromAssignment builds a schedule from an existing assignment vector
// (which may contain Unassigned entries). The vector is copied and CT is
// computed from scratch.
func FromAssignment(inst *etc.Instance, assign []int) (*Schedule, error) {
	if len(assign) != inst.T {
		return nil, fmt.Errorf("schedule: assignment length %d, want %d", len(assign), inst.T)
	}
	s := New(inst)
	if err := s.SetAssignments(assign); err != nil {
		return nil, err
	}
	return s, nil
}

// SetAssignments overwrites the whole assignment vector at once and
// rebuilds CT, the compensation terms and the max index with the
// bulk-load kernel. Entries may be Unassigned. The result is
// bit-identical to clearing s and Assigning each task in ascending
// order; an invalid vector is rejected without modifying s.
func (s *Schedule) SetAssignments(assign []int) error {
	if len(assign) != s.Inst.T {
		return fmt.Errorf("schedule: assignment length %d, want %d", len(assign), s.Inst.T)
	}
	for t, m := range assign {
		if m != Unassigned && (m < 0 || m >= s.Inst.M) {
			return fmt.Errorf("schedule: task %d assigned to invalid machine %d", t, m)
		}
	}
	copy(s.S, assign)
	s.loadFromS()
	return nil
}

// accumulateAssign folds the cost of every assigned task of a into the
// compensated completion-time lanes (ct, lo), which the caller has
// initialized (typically to the ready times and zero). One pass in
// ascending task order reads only the T assigned entries of the row
// layout and accumulates each machine's tasks in the order sequential
// Assign calls in ascending t produce, so the resulting pairs are
// bit-identical to the incremental path.
func accumulateAssign(inst *etc.Instance, a []int, ct, lo []float64) {
	row, m := inst.Row, inst.M
	for t, mm := range a {
		if mm != Unassigned {
			ct[mm], lo[mm] = accAdd(ct[mm], lo[mm], row[t*m+mm])
		}
	}
}

// loadFromS rebuilds CT, the compensation terms and the max index from
// the current S with one accumulateAssign pass, bit-identically to
// assigning every task incrementally in ascending order.
func (s *Schedule) loadFromS() {
	copy(s.CT, s.Inst.Ready)
	clear(s.ctLo)
	accumulateAssign(s.Inst, s.S, s.CT, s.ctLo)
	s.rebuildTree()
}

// maxOf returns the index of the machine with the larger completion
// time, treating -1 as an empty slot and breaking ties toward a (the
// left, lower-index subtree).
func (s *Schedule) maxOf(a, b int32) int32 {
	if a < 0 {
		return b
	}
	if b < 0 {
		return a
	}
	if s.CT[b] > s.CT[a] {
		return b
	}
	return a
}

// rebuildTree recomputes every tournament node from CT in O(machines).
func (s *Schedule) rebuildTree() {
	for i := 0; i < s.leaf; i++ {
		if i < len(s.CT) {
			s.tree[s.leaf+i] = int32(i)
		} else {
			s.tree[s.leaf+i] = -1
		}
	}
	for i := s.leaf - 1; i >= 1; i-- {
		s.tree[i] = s.maxOf(s.tree[2*i], s.tree[2*i+1])
	}
}

// fixup repairs the tournament path above machine m after CT[m]
// changed. It walks toward the root but stops at the first node whose
// stored winner is both unchanged and unaffected (a machine other than
// m): every ancestor compares the same values as before, so the rest of
// the path is already consistent.
func (s *Schedule) fixup(m int) {
	mi := int32(m)
	for p := (s.leaf + m) >> 1; p >= 1; p >>= 1 {
		w := s.maxOf(s.tree[2*p], s.tree[2*p+1])
		if w == s.tree[p] && w != mi {
			return
		}
		s.tree[p] = w
	}
}

// accAdd performs one compensated (double-double) accumulation step on
// the pair (hi, lo) and returns the renormalized result. The error-free
// transformation is Knuth's TwoSum followed by a renormalization, so
// the pair absorbs the rounding error of every update instead of
// discarding it. It is the one accumulation primitive shared by the
// incremental path and the bulk/batched kernels — same operations in
// the same order, so any per-machine update sequence yields bit-equal
// pairs on either path.
func accAdd(hi, lo, v float64) (float64, float64) {
	sum := hi + v
	bv := sum - hi
	err := (hi - (sum - bv)) + (v - bv)
	err += lo
	nh := sum + err
	return nh, err - (nh - sum)
}

// accumulate adds v to machine m's compensated completion time without
// repairing the tournament tree (the caller does, or rebuilds).
func (s *Schedule) accumulate(m int, v float64) {
	s.CT[m], s.ctLo[m] = accAdd(s.CT[m], s.ctLo[m], v)
}

// add applies one compensated update to machine m and repairs the max
// index: O(log machines) worst case, O(1) when the update cannot change
// the makespan.
func (s *Schedule) add(m int, v float64) {
	s.accumulate(m, v)
	s.fixup(m)
}

// Assign places the unassigned task t on machine m, updating CT and the
// makespan index in O(log machines). It panics if t is already assigned
// (use Move instead); that is a programming error, not a runtime
// condition.
func (s *Schedule) Assign(t, m int) {
	if s.S[t] != Unassigned {
		panic(fmt.Sprintf("schedule: Assign on already-assigned task %d", t))
	}
	s.S[t] = m
	s.add(m, s.Inst.TaskCosts(t)[m])
}

// Unassign removes task t from its machine, updating CT and the
// makespan index in O(log machines). It is a no-op for unassigned
// tasks.
func (s *Schedule) Unassign(t int) {
	m := s.S[t]
	if m == Unassigned {
		return
	}
	s.add(m, -s.Inst.TaskCosts(t)[m])
	s.S[t] = Unassigned
}

// Move reassigns task t to machine m with an O(log machines) CT and
// index update. Moving a task to its current machine is a no-op. Moving
// an unassigned task is equivalent to Assign. Both ETC reads go through
// the task's cost row, so source and destination costs usually share a
// cache line.
func (s *Schedule) Move(t, m int) {
	from := s.S[t]
	if from == m {
		return
	}
	tc := s.Inst.TaskCosts(t)
	if from != Unassigned {
		s.add(from, -tc[from])
	}
	s.S[t] = m
	s.add(m, tc[m])
}

// SetAssignment overwrites the assignment of task t like Move but
// additionally accepts Unassigned as destination.
func (s *Schedule) SetAssignment(t, m int) {
	if m == Unassigned {
		s.Unassign(t)
		return
	}
	s.Move(t, m)
}

// SetRange overwrites the assignments of tasks start, start+1, … with
// assign (entries may be Unassigned). The completion times receive
// exactly SetAssignment's compensated updates in the same ascending
// order — the old machine's removal, then the new machine's addition —
// but the max index is rebuilt once at the end, in O(machines), instead
// of being repaired per gene. The tournament tree is a pure function of
// CT (every node is maxOf its children, which fixup maintains after
// each update), so the result is bit-identical to a per-gene
// SetAssignment loop. This is the crossover path, where a window of
// differing genes would otherwise pay two tree repairs each.
func (s *Schedule) SetRange(start int, assign []int) {
	dst := s.S[start : start+len(assign)]
	changed := false
	for i, to := range assign {
		from := dst[i]
		if from == to {
			continue
		}
		tc := s.Inst.TaskCosts(start + i)
		if from != Unassigned {
			s.accumulate(from, -tc[from])
		}
		if to != Unassigned {
			s.accumulate(to, tc[to])
		}
		dst[i] = to
		changed = true
	}
	if changed {
		s.rebuildTree()
	}
}

// Complete reports whether every task is assigned.
func (s *Schedule) Complete() bool {
	for _, m := range s.S {
		if m == Unassigned {
			return false
		}
	}
	return true
}

// Makespan is the fitness of §2.2: the maximum completion time over all
// machines (Eq. 3). It is an O(1) read of the tournament tree's root.
// On a degenerate instance with no machines it returns 0.
func (s *Schedule) Makespan() float64 {
	if w := s.tree[1]; w >= 0 {
		return s.CT[w]
	}
	return 0
}

// MakespanMachine returns the index of the machine that defines the
// makespan (ties broken toward the lowest index) and its completion
// time, in O(1). On a degenerate instance with no machines it returns
// (-1, 0).
func (s *Schedule) MakespanMachine() (machine int, ct float64) {
	w := s.tree[1]
	if w < 0 {
		return -1, 0
	}
	return int(w), s.CT[w]
}

// Scratch is a reusable arena of buffers for the allocation-heavy
// schedule queries (FlowtimeInto and callers of TasksOn,
// MachinesByCompletion and LeastLoaded). The zero value is ready to
// use; buffers grow on demand and are retained across calls, so one
// Scratch per worker removes those queries from the allocator entirely.
// A Scratch is not safe for concurrent use.
type Scratch struct {
	intBuf   []int
	floatBuf []float64

	// Lanes of the batched kernels (see batch.go). They are separate
	// from intBuf/floatBuf so BatchEvaluate and MoveScores can be
	// interleaved with FlowtimeInto and the Ints/Floats helpers without
	// clobbering each other.
	batchCT []float64
	batchLo []float64
	batchMk []float64
	moveBuf []float64
}

// Ints returns a length-n int buffer backed by the arena (contents
// unspecified).
func (sc *Scratch) Ints(n int) []int {
	if cap(sc.intBuf) < n {
		sc.intBuf = make([]int, n)
	}
	sc.intBuf = sc.intBuf[:n]
	return sc.intBuf
}

// Floats returns a length-n float64 buffer backed by the arena
// (contents unspecified).
func (sc *Scratch) Floats(n int) []float64 {
	if cap(sc.floatBuf) < n {
		sc.floatBuf = make([]float64, n)
	}
	sc.floatBuf = sc.floatBuf[:n]
	return sc.floatBuf
}

// flowtimePool backs the allocation-free convenience Flowtime; workers
// with a natural place for one should hold their own Scratch and call
// FlowtimeInto directly.
var flowtimePool = sync.Pool{New: func() any { return new(Scratch) }}

// Flowtime returns the sum of task finishing times assuming each machine
// runs its tasks in shortest-processing-time order (the convention of the
// batch-scheduling literature the paper draws its baselines from). It is
// provided for instrumentation; the paper optimizes makespan only.
func (s *Schedule) Flowtime() float64 {
	sc := flowtimePool.Get().(*Scratch)
	v := s.FlowtimeInto(sc)
	flowtimePool.Put(sc)
	return v
}

// FlowtimeInto is Flowtime computed through a caller-owned scratch
// arena: the per-machine task buckets live in the arena's buffers, so
// repeated calls (the flowtime-weighted fitness of the multi-objective
// extension) do not allocate.
func (s *Schedule) FlowtimeInto(sc *Scratch) float64 {
	m := s.Inst.M
	// offs[k+1] counts tasks on machine k, then prefix-sums to bucket
	// offsets, then serves as the per-machine fill cursor.
	offs := sc.Ints(m + 1)
	for i := range offs {
		offs[i] = 0
	}
	assigned := 0
	for _, mac := range s.S {
		if mac != Unassigned {
			offs[mac+1]++
			assigned++
		}
	}
	for k := 0; k < m; k++ {
		offs[k+1] += offs[k]
	}
	loads := sc.Floats(assigned)
	row := s.Inst.Row
	for t, mac := range s.S {
		if mac == Unassigned {
			continue
		}
		loads[offs[mac]] = row[t*m+mac]
		offs[mac]++
	}
	total := 0.0
	start := 0
	for k := 0; k < m; k++ {
		seg := loads[start:offs[k]] // offs[k] is now the end of bucket k
		start = offs[k]
		slices.Sort(seg)
		acc := s.Inst.Ready[k]
		for _, d := range seg {
			//lint:ignore floataccum flowtime is a reported statistic, not CT state; it is outside the bit-exactness contract
			acc += d
			//lint:ignore floataccum same: reported statistic, no incremental counterpart to stay bit-equal with
			total += acc
		}
	}
	return total
}

// RecomputeCT rebuilds CT (and the compensation terms and the max
// index) from scratch; it exists to validate the incremental
// bookkeeping and to measure how much the incremental scheme saves
// (ablation benchmark 3 in DESIGN.md). It is the bulk-load kernel.
func (s *Schedule) RecomputeCT() {
	s.loadFromS()
}

// MakespanFull evaluates the makespan without trusting CT, recomputing
// machine loads from S with plain (uncompensated) summation. Used by
// the incremental-vs-full ablation and as the reference value of the
// drift bound. On a degenerate instance with no machines it returns 0.
func (s *Schedule) MakespanFull() float64 {
	ct := make([]float64, s.Inst.M)
	copy(ct, s.Inst.Ready)
	row, m := s.Inst.Row, s.Inst.M
	for t, mm := range s.S {
		if mm != Unassigned {
			//lint:ignore floataccum MakespanFull is the deliberately uncompensated reference the drift bound is measured against
			ct[mm] += row[t*m+mm]
		}
	}
	max := 0.0
	for _, c := range ct {
		if c > max {
			max = c
		}
	}
	return max
}

// DriftBound returns a rigorous bound on |Makespan() − MakespanFull()|
// for the schedule's current state, valid after any number of
// incremental updates.
//
// The compensated completion times are exact to well below one ulp (the
// double-double pair absorbs every update's rounding error; its own
// residual error is O(ε²) per update), so the bound is dominated by the
// plain left-to-right summation MakespanFull itself performs: a machine
// holding k tasks is summed with relative error at most (k+1)·ε. With
// k ≤ the maximum number of tasks on any machine and a few ulps of
// slack for the compensated side, the bound is
//
//	(kmax + 8) · ε · Makespan
//
// Real bookkeeping bugs misaccount whole ETC entries (≥ 1 by
// construction), many orders of magnitude above this bound.
func (s *Schedule) DriftBound() float64 {
	if s.Inst.M == 0 {
		return 0
	}
	counts := make([]int, s.Inst.M)
	for _, m := range s.S {
		if m != Unassigned {
			counts[m]++
		}
	}
	kmax := 0
	for _, c := range counts {
		if c > kmax {
			kmax = c
		}
	}
	peak := s.Makespan()
	if peak < 1 {
		peak = 1
	}
	return float64(kmax+8) * epsilon * peak
}

// Validate verifies the CT invariant against a fresh recomputation.
// Thanks to the compensated accumulation the tolerance is tight: the
// recomputation's own plain summation error, (k+1)·ε per machine with k
// summed terms, plus a few ulps of slack — no allowance for incremental
// drift is needed (that is the bug this scheme fixes). It also verifies
// that the tournament tree agrees with a scan of CT.
func (s *Schedule) Validate() error {
	ct := make([]float64, s.Inst.M)
	counts := make([]int, s.Inst.M)
	copy(ct, s.Inst.Ready)
	for t, m := range s.S {
		if m == Unassigned {
			continue
		}
		if m < 0 || m >= s.Inst.M {
			return fmt.Errorf("schedule: task %d on invalid machine %d", t, m)
		}
		//lint:ignore floataccum the reference recomputation is deliberately plain; tol below budgets its rounding against the compensated CT
		ct[m] += s.Inst.TaskCosts(t)[m]
		counts[m]++
	}
	for m := range ct {
		peak := math.Max(math.Abs(ct[m]), math.Abs(s.CT[m]))
		if peak < 1 {
			peak = 1
		}
		tol := float64(counts[m]+8) * epsilon * peak
		if diff := math.Abs(ct[m] - s.CT[m]); diff > tol {
			return fmt.Errorf("schedule: CT[%d] = %v, recomputed %v (|diff| %v > tol %v)", m, s.CT[m], ct[m], diff, tol)
		}
	}
	if s.Inst.M > 0 {
		want, _ := s.MakespanMachine()
		best := 0
		for m := 1; m < s.Inst.M; m++ {
			if s.CT[m] > s.CT[best] {
				best = m
			}
		}
		if want != best {
			return fmt.Errorf("schedule: max index %d disagrees with CT scan %d", want, best)
		}
	}
	return nil
}

func approxEqual(a, b float64) bool {
	diff := math.Abs(a - b)
	if diff == 0 {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-6*scale || diff <= 1e-9
}

// Clone returns a deep copy sharing the (immutable) instance.
func (s *Schedule) Clone() *Schedule {
	return &Schedule{
		Inst: s.Inst,
		S:    append([]int(nil), s.S...),
		CT:   append([]float64(nil), s.CT...),
		ctLo: append([]float64(nil), s.ctLo...),
		tree: append([]int32(nil), s.tree...),
		leaf: s.leaf,
	}
}

// CopyFrom overwrites s with src in place, without allocating. Both
// schedules must target the same instance.
func (s *Schedule) CopyFrom(src *Schedule) {
	if s.Inst != src.Inst {
		panic("schedule: CopyFrom across instances")
	}
	copy(s.S, src.S)
	copy(s.CT, src.CT)
	copy(s.ctLo, src.ctLo)
	copy(s.tree, src.tree)
}

// HammingDistance counts tasks assigned to different machines in s and
// o. It is the similarity measure of the struggle GA baseline.
func (s *Schedule) HammingDistance(o *Schedule) int {
	if len(s.S) != len(o.S) {
		panic("schedule: HammingDistance over different task counts")
	}
	d := 0
	for t := range s.S {
		if s.S[t] != o.S[t] {
			d++
		}
	}
	return d
}

// TasksOn appends to buf the tasks currently assigned to machine m and
// returns the extended slice. Pass a reusable buffer (or one from a
// Scratch) to avoid allocations in hot loops.
func (s *Schedule) TasksOn(m int, buf []int) []int {
	for t, mm := range s.S {
		if mm == m {
			buf = append(buf, t)
		}
	}
	return buf
}

// CountOn returns how many tasks are assigned to machine m.
func (s *Schedule) CountOn(m int) int {
	n := 0
	for _, mm := range s.S {
		if mm == m {
			n++
		}
	}
	return n
}

// RandomTaskOn returns a uniformly chosen task assigned to machine m, or
// -1 if the machine is empty. It counts the machine's tasks, draws
// k := r.Intn(count) — one draw, none for an empty machine — and
// returns the k-th of them in ascending task order. H2LL.Apply draws
// its task off the makespan machine by the same rule.
func (s *Schedule) RandomTaskOn(m int, r *rng.Rand) int {
	n := s.CountOn(m)
	if n == 0 {
		return -1
	}
	k := r.Intn(n)
	for t, mm := range s.S {
		if mm != m {
			continue
		}
		if k == 0 {
			return t
		}
		k--
	}
	panic("schedule: RandomTaskOn lost a counted task")
}

// machineLess is the total order behind MachinesByCompletion and
// LeastLoaded: ascending completion time, ties by index, making every
// derived order deterministic.
func (s *Schedule) machineLess(a, b int) bool {
	if s.CT[a] != s.CT[b] {
		return s.CT[a] < s.CT[b]
	}
	return a < b
}

// siftDown restores the max-heap property (machineLess order, greatest
// at the root) for v[i:] bounded by n.
func (s *Schedule) siftDown(v []int, i, n int) {
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && s.machineLess(v[c], v[c+1]) {
			c++
		}
		if !s.machineLess(v[i], v[c]) {
			return
		}
		v[i], v[c] = v[c], v[i]
		i = c
	}
}

// sortMachines heap-sorts v ascending under machineLess without
// allocating (no comparator closure, no reflection).
func (s *Schedule) sortMachines(v []int) {
	n := len(v)
	for i := n/2 - 1; i >= 0; i-- {
		s.siftDown(v, i, n)
	}
	for i := n - 1; i > 0; i-- {
		v[0], v[i] = v[i], v[0]
		s.siftDown(v, 0, i)
	}
}

// MachinesByCompletion returns machine indices sorted by ascending
// completion time (ties by index, making the order deterministic). The
// result is written into dst when it has sufficient capacity, and the
// sort itself never allocates.
func (s *Schedule) MachinesByCompletion(dst []int) []int {
	if cap(dst) < s.Inst.M {
		dst = make([]int, s.Inst.M)
	}
	dst = dst[:s.Inst.M]
	for i := range dst {
		dst[i] = i
	}
	s.sortMachines(dst)
	return dst
}

// LeastLoaded writes into dst the n machines with the smallest
// completion times, ascending (ties by index), and returns it. It is
// the partial-selection companion to MachinesByCompletion for callers
// that only need a least-loaded candidate set: O(M·log n) against the
// full sort's O(M·log M), allocation-free when dst has capacity n.
func (s *Schedule) LeastLoaded(dst []int, n int) []int {
	m := len(s.CT)
	if n > m {
		n = m
	}
	if n <= 0 {
		return dst[:0]
	}
	if cap(dst) < n {
		dst = make([]int, 0, n)
	}
	dst = dst[:0]
	// Max-heap of the n best machines seen so far: the root is the
	// worst of the kept set and is evicted by any better machine.
	for mac := 0; mac < m; mac++ {
		if len(dst) < n {
			dst = append(dst, mac)
			for i := len(dst) - 1; i > 0; {
				p := (i - 1) / 2
				if !s.machineLess(dst[p], dst[i]) {
					break
				}
				dst[p], dst[i] = dst[i], dst[p]
				i = p
			}
			continue
		}
		if s.machineLess(mac, dst[0]) {
			dst[0] = mac
			s.siftDown(dst, 0, n)
		}
	}
	s.sortMachines(dst)
	return dst
}

// Utilization is the fraction of machine time spent computing between
// t=0 and the makespan: Σ_m (CT[m] − ready[m]) / (machines · makespan).
// 1.0 means a perfectly packed schedule; low values flag idle machines.
// It returns 0 for an empty schedule.
func (s *Schedule) Utilization() float64 {
	mk := s.Makespan()
	if mk <= 0 {
		return 0
	}
	busy := 0.0
	for m, ct := range s.CT {
		//lint:ignore floataccum utilization is a post-hoc statistic over final CT values, outside the bit-exactness contract
		busy += ct - s.Inst.Ready[m]
	}
	return busy / (float64(s.Inst.M) * mk)
}

// ImbalanceCV is the coefficient of variation of machine completion
// times — 0 for perfectly balanced load (and for a machineless
// instance).
func (s *Schedule) ImbalanceCV() float64 {
	if len(s.CT) == 0 {
		return 0
	}
	mean := 0.0
	for _, ct := range s.CT {
		//lint:ignore floataccum imbalance CV is a post-hoc statistic over final CT values, outside the bit-exactness contract
		mean += ct
	}
	mean /= float64(len(s.CT))
	if mean == 0 {
		return 0
	}
	ss := 0.0
	for _, ct := range s.CT {
		d := ct - mean
		//lint:ignore floataccum imbalance CV is a post-hoc statistic over final CT values, outside the bit-exactness contract
		ss += d * d
	}
	return math.Sqrt(ss/float64(len(s.CT))) / mean
}

// String renders a compact human-readable summary.
func (s *Schedule) String() string {
	return fmt.Sprintf("schedule{%s, makespan=%.2f}", s.Inst.Name, s.Makespan())
}
