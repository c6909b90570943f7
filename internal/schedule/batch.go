// Batched fitness kernels: whole-population evaluation and whole-
// neighborhood move scoring through one reusable scratch arena. Both
// kernels are bit-identical to the scalar incremental path — they share
// its accumulation primitive (accAdd) and preserve its per-machine
// update order and tie-breaks — so solvers can switch freely between
// per-element and batched evaluation without perturbing a single
// trajectory.
package schedule

import (
	"fmt"

	"gridsched/internal/etc"
)

// grow returns a length-n slice backed by *buf, reallocating only when
// the capacity is insufficient (contents unspecified).
func grow(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// BatchEvaluate computes the makespan of every assignment vector in one
// pass, reusing a single completion-time arena (B×M compensated lanes
// held by the Scratch) across the whole batch instead of building B
// schedules. Each vector is one task-ordered pass over the row layout
// that reads only its assigned entries. Vectors may contain Unassigned
// entries; each must have length inst.T (a mismatch panics — it is a
// programming error, exactly like assigning out of range).
//
// The result is bit-identical to FromAssignment(inst, a).Makespan() for
// each vector: the lanes accumulate per machine in ascending task order
// with the same compensated primitive, and the final scan is
// Makespan's own first-max scan.
//
// The returned slice is scratch-backed: it is valid until the next
// BatchEvaluate call on the same Scratch.
func (sc *Scratch) BatchEvaluate(inst *etc.Instance, assignments [][]int) []float64 {
	b := len(assignments)
	out := grow(&sc.batchMk, b)
	if b == 0 {
		return out
	}
	for i, a := range assignments {
		if len(a) != inst.T {
			panic(fmt.Sprintf("schedule: BatchEvaluate assignment %d has length %d, want %d", i, len(a), inst.T))
		}
	}
	m := inst.M
	ct := grow(&sc.batchCT, b*m)
	lo := grow(&sc.batchLo, b*m)
	clear(lo)
	for i := 0; i < b; i++ {
		copy(ct[i*m:(i+1)*m], inst.Ready)
	}
	for i, a := range assignments {
		accumulateAssign(inst, a, ct[i*m:(i+1)*m], lo[i*m:(i+1)*m])
	}
	for i := range out {
		_, out[i] = firstMax(ct[i*m : (i+1)*m])
	}
	return out
}

// MoveScores scores every destination machine for relocating task onto
// it: out[m] = CT[m] + ETC(task, m), the completion time machine m
// would reach if the task were moved (or assigned) there, in one
// contiguous sweep over the task's cost row — this is the batched
// neighborhood kernel behind tabu's candidate scoring. Callers that must exclude a
// machine (the source, or a tabu destination) skip it while consuming
// the scores, which keeps the kernel branch-free.
//
// The returned slice is scratch-backed: it is valid until the next
// MoveScores call on the same Scratch.
func (sc *Scratch) MoveScores(s *Schedule, task int) []float64 {
	tc := s.Inst.TaskCosts(task)
	out := grow(&sc.moveBuf, len(tc))
	ct := s.CT[:len(tc)]
	for m, c := range tc {
		out[m] = ct[m] + c
	}
	return out
}
