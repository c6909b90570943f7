// Package gridsim is a discrete-event simulator of the dynamic grid
// environment that motivates the paper (§2.1): machines execute their
// assigned tasks sequentially and non-preemptively, actual execution
// times deviate from the ETC estimates, and machines can drop from the
// grid (losing their running and queued work) and later rejoin.
//
// The simulator answers the question the static ETC model cannot: how
// does an optimized schedule hold up when the environment misbehaves?
// With no noise and no failures, the simulated makespan equals the
// schedule's predicted makespan exactly — the key validation invariant —
// so any difference under perturbation is attributable to the modeled
// dynamics.
package gridsim

import (
	"container/heap"
	"fmt"
	"math"

	"gridsched/internal/etc"
	"gridsched/internal/rng"
	"gridsched/internal/schedule"
)

// EventKind enumerates the simulator's event types.
type EventKind int

const (
	// TaskStart marks a task beginning execution on a machine.
	TaskStart EventKind = iota
	// TaskComplete marks a successful task completion.
	TaskComplete
	// MachineFail marks a machine dropping from the grid; its running
	// task and queue are orphaned.
	MachineFail
	// MachineRejoin marks a failed machine rejoining the grid.
	MachineRejoin
	// TaskRescheduled marks an orphaned task being re-placed.
	TaskRescheduled
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case TaskStart:
		return "start"
	case TaskComplete:
		return "complete"
	case MachineFail:
		return "fail"
	case MachineRejoin:
		return "rejoin"
	case TaskRescheduled:
		return "reschedule"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one entry of the simulation trace. Task is -1 for machine
// events; Machine is the machine involved.
type Event struct {
	Time    float64
	Kind    EventKind
	Task    int
	Machine int
}

// Rescheduler decides where orphaned tasks go after a machine failure.
// up[m] reports whether machine m is currently in the grid and free[m]
// is the earliest time it could start new work. Implementations return
// the chosen machine per task; returning a down machine is an error
// surfaced by Simulate.
type Rescheduler interface {
	Place(inst *etc.Instance, tasks []int, up []bool, free []float64) ([]int, error)
}

// MCTRescheduler re-places each orphan on the machine that would
// complete it earliest — the natural online policy, mirroring the MCT
// heuristic.
type MCTRescheduler struct{}

// Place implements Rescheduler.
func (MCTRescheduler) Place(inst *etc.Instance, tasks []int, up []bool, free []float64) ([]int, error) {
	out := make([]int, len(tasks))
	avail := append([]float64(nil), free...)
	for i, t := range tasks {
		tc := inst.TaskCosts(t)
		best, bestCT := -1, math.Inf(1)
		for m, cost := range tc {
			if !up[m] {
				continue
			}
			if ct := avail[m] + cost; ct < bestCT {
				best, bestCT = m, ct
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("gridsim: no machine available for task %d", t)
		}
		out[i] = best
		avail[best] = bestCT
	}
	return out, nil
}

// MinMinRescheduler re-places orphans with Min-min's batch logic:
// repeatedly commit the orphan whose best completion time is smallest.
// Costlier than MCT per failure (O(n²·m) in the orphan count) but
// produces better packings when a failure orphans many tasks at once.
type MinMinRescheduler struct{}

// Place implements Rescheduler.
func (MinMinRescheduler) Place(inst *etc.Instance, tasks []int, up []bool, free []float64) ([]int, error) {
	anyUp := false
	for _, u := range up {
		anyUp = anyUp || u
	}
	if !anyUp && len(tasks) > 0 {
		return nil, fmt.Errorf("gridsim: no machine available for %d tasks", len(tasks))
	}
	out := make([]int, len(tasks))
	avail := append([]float64(nil), free...)
	remaining := make([]int, len(tasks)) // indices into tasks
	for i := range remaining {
		remaining[i] = i
	}
	for len(remaining) > 0 {
		bestIdx, bestMac := -1, -1
		bestCT := math.Inf(1)
		for _, ri := range remaining {
			tc := inst.TaskCosts(tasks[ri])
			for m, cost := range tc {
				if !up[m] {
					continue
				}
				if ct := avail[m] + cost; ct < bestCT {
					bestIdx, bestMac, bestCT = ri, m, ct
				}
			}
		}
		out[bestIdx] = bestMac
		avail[bestMac] = bestCT
		for i, ri := range remaining {
			if ri == bestIdx {
				remaining[i] = remaining[len(remaining)-1]
				remaining = remaining[:len(remaining)-1]
				break
			}
		}
	}
	return out, nil
}

// Config parameterizes a simulation.
type Config struct {
	// MTBF is each machine's mean time between failures (exponential);
	// 0 disables failures.
	MTBF float64
	// RepairTime is how long a failed machine stays out of the grid; 0
	// with MTBF > 0 means machines never return.
	RepairTime float64
	// NoiseSigma is the σ of the lognormal multiplicative noise applied
	// to every execution time (0 = exact ETC).
	NoiseSigma float64
	// Seed drives failure times and noise.
	Seed uint64
	// Rescheduler re-places orphaned tasks (default MCTRescheduler).
	Rescheduler Rescheduler
	// MaxTime aborts the simulation if the clock passes it (a guard
	// against pathological configurations); 0 = no limit.
	MaxTime float64
	// RecordTrace keeps the full event list in the result.
	RecordTrace bool
}

// Result reports a simulation.
type Result struct {
	// Makespan is the time the last task completed.
	Makespan float64
	// PredictedMakespan is the schedule's static makespan for reference.
	PredictedMakespan float64
	// Completed counts finished tasks (== instance tasks unless aborted).
	Completed int
	// Failures and Rejoins count machine events; Restarts counts task
	// re-placements after failures.
	Failures, Rejoins, Restarts int
	// TaskFinish holds each task's completion time.
	TaskFinish []float64
	// Trace is the event list when Config.RecordTrace was set.
	Trace []Event
}

// event-queue plumbing (container/heap over simEvent).
type simEvent struct {
	time float64
	kind EventKind
	task int
	mach int
	seq  int // tie-break so ordering is deterministic
}

type eventQueue []simEvent

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(simEvent)) }
func (q *eventQueue) Pop() any     { old := *q; n := len(old); e := old[n-1]; *q = old[:n-1]; return e }

// machineState tracks one machine during simulation.
type machineState struct {
	up      bool
	runTask int     // -1 when idle
	runEnd  float64 // completion time of the running task
	queue   []int   // tasks waiting on this machine, FIFO
	freeAt  float64 // earliest time new work could start
}

// Simulate executes the schedule on the simulated grid. The schedule
// must be complete. Each machine runs its tasks in ascending task-index
// order (the representation carries no intra-machine order; any fixed
// order yields the same makespan under the ETC model).
func Simulate(inst *etc.Instance, s *schedule.Schedule, cfg Config) (*Result, error) {
	if !s.Complete() {
		return nil, fmt.Errorf("gridsim: schedule is incomplete")
	}
	if s.Inst != inst {
		return nil, fmt.Errorf("gridsim: schedule targets a different instance")
	}
	if cfg.Rescheduler == nil {
		cfg.Rescheduler = MCTRescheduler{}
	}
	r := rng.New(cfg.Seed)

	res := &Result{
		PredictedMakespan: s.Makespan(),
		TaskFinish:        make([]float64, inst.T),
	}
	for i := range res.TaskFinish {
		res.TaskFinish[i] = math.NaN()
	}

	machines := make([]machineState, inst.M)
	var q eventQueue
	seq := 0
	push := func(t float64, kind EventKind, task, mach int) {
		heap.Push(&q, simEvent{time: t, kind: kind, task: task, mach: mach, seq: seq})
		seq++
	}
	record := func(t float64, kind EventKind, task, mach int) {
		if cfg.RecordTrace {
			res.Trace = append(res.Trace, Event{Time: t, Kind: kind, Task: task, Machine: mach})
		}
	}

	// duration returns the actual execution time of task t on machine m.
	duration := func(t, m int) float64 {
		d := inst.TaskCosts(t)[m]
		if cfg.NoiseSigma > 0 {
			d *= math.Exp(cfg.NoiseSigma * normal(r))
		}
		return d
	}

	// startNext begins the next queued task on machine m at time now.
	startNext := func(m int, now float64) {
		ms := &machines[m]
		if !ms.up || ms.runTask >= 0 || len(ms.queue) == 0 {
			return
		}
		task := ms.queue[0]
		ms.queue = ms.queue[1:]
		start := math.Max(now, ms.freeAt)
		end := start + duration(task, m)
		ms.runTask, ms.runEnd = task, end
		record(start, TaskStart, task, m)
		push(end, TaskComplete, task, m)
	}

	// Initial queues: tasks per machine in ascending index order, after
	// the machine's ready time.
	for m := range machines {
		machines[m] = machineState{up: true, runTask: -1, freeAt: inst.Ready[m]}
	}
	for t := 0; t < inst.T; t++ {
		machines[s.S[t]].queue = append(machines[s.S[t]].queue, t)
	}
	for m := range machines {
		startNext(m, 0)
		if cfg.MTBF > 0 {
			push(exponential(r, cfg.MTBF), MachineFail, -1, m)
		}
	}

	reschedule := func(now float64, orphans []int) error {
		if len(orphans) == 0 {
			return nil
		}
		up := make([]bool, inst.M)
		free := make([]float64, inst.M)
		anyUp := false
		for m := range machines {
			up[m] = machines[m].up
			anyUp = anyUp || up[m]
			free[m] = machineBacklogEnd(&machines[m], inst, now, m)
		}
		if !anyUp {
			return fmt.Errorf("gridsim: all machines down with %d tasks pending at t=%.2f", len(orphans), now)
		}
		placement, err := cfg.Rescheduler.Place(inst, orphans, up, free)
		if err != nil {
			return err
		}
		if len(placement) != len(orphans) {
			return fmt.Errorf("gridsim: rescheduler returned %d placements for %d tasks", len(placement), len(orphans))
		}
		for i, task := range orphans {
			m := placement[i]
			if m < 0 || m >= inst.M || !machines[m].up {
				return fmt.Errorf("gridsim: rescheduler placed task %d on unavailable machine %d", task, m)
			}
			machines[m].queue = append(machines[m].queue, task)
			res.Restarts++
			record(now, TaskRescheduled, task, m)
			startNext(m, now)
		}
		return nil
	}

	// Main loop.
	now := 0.0
	for q.Len() > 0 && res.Completed < inst.T {
		ev := heap.Pop(&q).(simEvent)
		now = ev.time
		if cfg.MaxTime > 0 && now > cfg.MaxTime {
			return res, fmt.Errorf("gridsim: exceeded MaxTime %.2f with %d/%d tasks done", cfg.MaxTime, res.Completed, inst.T)
		}
		switch ev.kind {
		case TaskComplete:
			ms := &machines[ev.mach]
			// Stale completion of a task that was orphaned by a failure.
			if !ms.up || ms.runTask != ev.task {
				continue
			}
			ms.runTask = -1
			ms.freeAt = now
			res.TaskFinish[ev.task] = now
			res.Completed++
			if now > res.Makespan {
				res.Makespan = now
			}
			record(now, TaskComplete, ev.task, ev.mach)
			startNext(ev.mach, now)

		case MachineFail:
			ms := &machines[ev.mach]
			if !ms.up {
				continue // stale failure of an already-down machine
			}
			ms.up = false
			res.Failures++
			record(now, MachineFail, -1, ev.mach)
			orphans := make([]int, 0, len(ms.queue)+1)
			if ms.runTask >= 0 {
				orphans = append(orphans, ms.runTask) // non-preemptive: restart from scratch
				ms.runTask = -1
			}
			orphans = append(orphans, ms.queue...)
			ms.queue = nil
			if cfg.RepairTime > 0 {
				push(now+cfg.RepairTime, MachineRejoin, -1, ev.mach)
			}
			if err := reschedule(now, orphans); err != nil {
				return res, err
			}

		case MachineRejoin:
			ms := &machines[ev.mach]
			ms.up = true
			ms.freeAt = now
			res.Rejoins++
			record(now, MachineRejoin, -1, ev.mach)
			if cfg.MTBF > 0 {
				push(now+exponential(r, cfg.MTBF), MachineFail, -1, ev.mach)
			}
			startNext(ev.mach, now)
		}
	}
	if res.Completed < inst.T {
		return res, fmt.Errorf("gridsim: simulation stalled with %d/%d tasks done", res.Completed, inst.T)
	}
	return res, nil
}

// machineBacklogEnd estimates when machine m will have drained its
// current run and queue (expected times, ignoring future noise) — the
// availability estimate handed to the rescheduler.
func machineBacklogEnd(ms *machineState, inst *etc.Instance, now float64, m int) float64 {
	end := math.Max(now, ms.freeAt)
	if ms.runTask >= 0 {
		end = math.Max(end, ms.runEnd)
	}
	for _, t := range ms.queue {
		end += inst.TaskCosts(t)[m]
	}
	return end
}

// exponential draws an Exp(mean) variate.
func exponential(r *rng.Rand, mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// normal draws a standard normal via Box-Muller.
func normal(r *rng.Rand) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}
