package service

import (
	"fmt"
	"runtime/debug"

	"gridsched/internal/solver"
)

// runWorker is one solve worker. It takes jobs off the run queue in
// submit order and exits once BeginDrain has closed the queue and the
// queue is empty.
func (s *Server) runWorker() {
	defer s.workers.Done()
	for j := range s.queue {
		s.execute(j)
	}
}

// execute runs one dequeued job to retirement.
//
// A job cancelled while queued is retired without running — including
// one whose context a forced shutdown (or a client Cancel racing the
// dequeue) already cancelled: running it anyway would make drain
// latency depend on every solver noticing the dead context, and
// zero-budget heuristics never would. Either way the job reaches a
// terminal state, its retirement is folded into the stats counters and
// metrics BEFORE its waiters are released, so a Wait-then-read of any
// counter observes the finished job.
func (s *Server) execute(j *job) {
	j.markDequeued()
	j.timeline.Mark("dispatched")
	// The base context is checked too: Close cancels it first, and Go
	// cancels its child contexts one at a time, so a worker freed by the
	// cancelled in-flight job can dequeue a job whose own context is not
	// cancelled yet.
	if j.ctx.Err() != nil || s.baseCtx.Err() != nil {
		j.requestCancel()
	}
	panicked := false
	if j.begin() {
		s.met.busy.Add(1)
		s.log.Info("job started",
			"job_id", j.id, "solver", j.spec.Solver, "instance", j.inst.Name,
			"request_id", j.spec.RequestID)
		var res *solver.Result
		var err error
		res, err, panicked = s.solve(j)
		j.finish(res, err)
		s.met.busy.Add(-1)
	}
	// Fold the retired job (ran or cancelled-while-queued) into the
	// stats counters and the event metrics.
	snap := j.snapshot()
	s.counters(j.spec.Solver).fold(snap)
	s.gauges.finished.Add(1)
	s.met.finished.With(finishLabel(snap.State, panicked)).Inc()
	attrs := []any{
		"job_id", j.id, "solver", j.spec.Solver, "instance", j.inst.Name,
		"request_id", j.spec.RequestID, "state", string(snap.State),
	}
	if !snap.StartedAt.IsZero() && !snap.FinishedAt.IsZero() {
		latency := snap.FinishedAt.Sub(snap.StartedAt)
		//lint:ignore metrichygiene solver names are bounded by the compiled-in registry; Submit rejects unknown solvers
		s.met.latency.With(j.spec.Solver).Observe(latency.Seconds())
		attrs = append(attrs, "duration", latency)
	}
	if snap.Result != nil {
		//lint:ignore metrichygiene solver names are bounded by the compiled-in registry; Submit rejects unknown solvers
		s.met.evals.With(j.spec.Solver).Add(snap.Result.Evaluations)
		attrs = append(attrs, "makespan", snap.Result.Makespan,
			"evaluations", snap.Result.Evaluations)
	}
	if snap.Error != "" {
		attrs = append(attrs, "error", snap.Error)
	}
	s.log.Info("job finished", attrs...)
	j.signalDone()
}

// counters returns the named solver's stats counters, creating them on
// the solver's first retirement.
func (s *Server) counters(name string) *solverCounters {
	c, ok := s.solvers.Load(name)
	if !ok {
		c, _ = s.solvers.LoadOrStore(name, &solverCounters{})
	}
	return c.(*solverCounters)
}

// solve runs the job's solver, containing panics. A solver that
// panics must not kill the worker goroutine: before this guard the
// pool silently shrank one panic at a time, the panicking job never
// reached a terminal state, Server.Wait blocked forever and Shutdown
// hung on the worker WaitGroup. The panic value and stack become the
// job's failure error; the worker stays alive; the caller counts the
// retirement under the "panic" metric label.
func (s *Server) solve(j *job) (res *solver.Result, err error, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			panicked = true
			res, err = nil, fmt.Errorf("solver panic: %v\n%s", r, debug.Stack())
		}
	}()
	res, err = j.solver.Solve(j.ctx, j.inst, j.budget)
	return res, err, false
}

// finishLabel maps a retired job's terminal state (plus the panic
// override) onto the closed label set of
// gridsched_jobs_finished_total. Spelling the states out keeps the
// label vocabulary a compile-time constant set the cardinality lint
// can verify, rather than whatever string the state type carries.
func finishLabel(st JobState, panicked bool) string {
	if panicked {
		return "panic"
	}
	switch st {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	case StateCancelled:
		return "cancelled"
	default:
		return "unknown"
	}
}
