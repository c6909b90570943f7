// Arena: a structure-of-arrays allocation of many schedules for one
// instance. The cellular GA population is the motivating consumer — its
// cells become views into contiguous planes, so generation sweeps
// (fitness scans, diversity measures, batched evaluation) stream memory
// sequentially instead of pointer-chasing per-cell allocations.
package schedule

import "gridsched/internal/etc"

// Arena holds n schedules whose fields alias contiguous backing planes:
// one []int assignment plane (n×T) and compensated completion-time
// lanes (n×M each). Every Schedule method works unchanged on an arena
// cell; the only difference from n independent New calls is the memory
// layout. Each cell's slices are capacity-clipped to its own segment,
// so no method can spill into a neighbor.
type Arena struct {
	inst   *etc.Instance
	scheds []Schedule
}

// NewArena returns an arena of n empty schedules (all tasks unassigned,
// CT = ready times), state-identical to n New(inst) calls.
func NewArena(inst *etc.Instance, n int) *Arena {
	assign := make([]int, n*inst.T)
	ct := make([]float64, n*inst.M)
	ctLo := make([]float64, n*inst.M)
	a := &Arena{inst: inst, scheds: make([]Schedule, n)}
	for i := range a.scheds {
		s := &a.scheds[i]
		s.Inst = inst
		s.S = assign[i*inst.T : (i+1)*inst.T : (i+1)*inst.T]
		s.CT = ct[i*inst.M : (i+1)*inst.M : (i+1)*inst.M]
		s.ctLo = ctLo[i*inst.M : (i+1)*inst.M : (i+1)*inst.M]
		for t := range s.S {
			s.S[t] = Unassigned
		}
		copy(s.CT, inst.Ready)
	}
	return a
}

// Len returns the number of schedules in the arena.
func (a *Arena) Len() int { return len(a.scheds) }

// At returns arena cell i. The pointer is stable for the arena's
// lifetime.
func (a *Arena) At(i int) *Schedule { return &a.scheds[i] }

// Inst returns the instance all arena cells target.
func (a *Arena) Inst() *etc.Instance { return a.inst }
