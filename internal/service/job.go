package service

import (
	"context"
	"errors"
	"sync"
	"time"

	"gridsched/internal/etc"
	"gridsched/internal/obs"
	"gridsched/internal/solver"
)

// JobState is the lifecycle state of a job: queued → running →
// done | failed | cancelled.
type JobState string

// The job lifecycle states.
const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (st JobState) Terminal() bool {
	return st == StateDone || st == StateFailed || st == StateCancelled
}

// JobSpec is a solve request: which solver, on which instance, under
// what budget. Exactly one of Instance (a benchmark class name,
// resolved through the instance cache) or Matrix (an inline ETC
// matrix) must be set.
type JobSpec struct {
	// Solver is the registry name to dispatch to (see solver.Names).
	Solver string
	// Instance names a Braun benchmark instance, e.g. "u_c_hihi.0".
	Instance string
	// Matrix is an inline instance; it bypasses the cache.
	Matrix *MatrixSpec
	// Budget bounds the run; the server may clamp MaxDuration.
	Budget solver.Budget
	// Seed, when non-zero, reseeds the solver (see solver.WithSeed).
	Seed uint64
	// RequestID, when set (the HTTP layer propagates X-Request-Id),
	// ties the job to the originating request in logs and traces.
	RequestID string
}

// MatrixSpec is an inline ETC matrix: row-major tasks×machines
// expected execution times.
type MatrixSpec struct {
	Name     string
	Tasks    int
	Machines int
	ETC      []float64
}

// Job is an immutable snapshot of one job's state, safe to retain and
// serialize. Result is non-nil once the job produced one (done, or
// cancelled mid-run with a partial best).
type Job struct {
	ID       string
	Solver   string
	Instance string
	Tasks    int
	Machines int
	Budget   solver.Budget
	Seed     uint64
	State    JobState
	// RequestID is the submitting request's ID ("" for direct embeds).
	RequestID string

	SubmittedAt time.Time
	StartedAt   time.Time
	FinishedAt  time.Time

	// Error holds the failure message for StateFailed.
	Error  string
	Result *JobResult
}

// Wait is how long the job sat in the queue (zero while queued).
func (j Job) Wait() time.Duration {
	if j.StartedAt.IsZero() {
		return 0
	}
	return j.StartedAt.Sub(j.SubmittedAt)
}

// JobResult is the client-facing result shape: the schedule's quality
// metrics, the solver's work counters, and the task→machine
// assignment.
type JobResult struct {
	Makespan         float64
	Flowtime         float64
	Utilization      float64
	ImbalanceCV      float64
	Evaluations      int64
	Generations      int64
	LocalSearchMoves int64
	Duration         time.Duration
	// EffectiveBudget is the budget the solver actually enforced,
	// including any context deadline absorbed by the stop engine — the
	// submitted Job.Budget alone reads "unbounded" in that case.
	EffectiveBudget solver.Budget
	// PerConstituent, for composite (portfolio) jobs, breaks the run
	// down per constituent solver: evaluations, busy time, restart
	// rounds and incumbent contributions. Nil for single-solver jobs.
	PerConstituent []solver.ConstituentResult
	Assignment     []int
}

// job is the manager's mutable record behind Job snapshots. seq and
// id are assigned under the server's lock at enqueue and immutable
// afterwards; home is the server's live gauges, which the state
// transitions below keep current.
type job struct {
	seq    uint64
	id     string
	spec   JobSpec
	solver solver.Solver
	inst   *etc.Instance
	budget solver.Budget
	home   *gauges

	ctx    context.Context
	cancel context.CancelFunc

	// timeline records lifecycle marks (queued → dispatched → solving →
	// terminal state); trace captures the solver's convergence events
	// through the observer attached to ctx. Both are concurrency-safe
	// and read by Server.Trace while the job runs.
	timeline obs.Timeline
	trace    *obs.Recorder

	// done is closed exactly once, when the job reaches a terminal
	// state; Server.Wait blocks on it.
	done chan struct{}

	mu        sync.Mutex
	st        JobState
	cancelReq bool
	// dequeued records that a worker pulled the job off the queue
	// channel. A job cancelled while queued turns terminal immediately
	// but still occupies its channel slot until a worker drains it; the
	// janitor must not evict such a job, or the worker would later
	// retire a ghost the job map no longer knows (and Job/Wait/Trace
	// would 404 a job the service still holds a reference to).
	dequeued  bool
	submitted time.Time
	started   time.Time
	finished  time.Time
	result    *solver.Result
	err       error
}

func newJob(spec JobSpec, sv solver.Solver, inst *etc.Instance, b solver.Budget, parent context.Context, home *gauges) *job {
	ctx, cancel := context.WithCancel(parent)
	trace := obs.NewRecorder(0)
	j := &job{
		spec:   spec,
		solver: sv,
		inst:   inst,
		budget: b,
		home:   home,
		// Every job carries its trace recorder as the solve context's
		// observer, so any engine the solver builds emits its
		// convergence events into the job's trace.
		ctx:       solver.WithObserver(ctx, trace),
		cancel:    cancel,
		trace:     trace,
		done:      make(chan struct{}),
		st:        StateQueued,
		submitted: time.Now(),
	}
	j.timeline.Mark("queued")
	return j
}

// closeDoneLocked signals waiters once the job is terminal. Callers
// hold j.mu; the select makes the close idempotent across the two
// terminal transitions (finish, and requestCancel on a queued job).
func (j *job) closeDoneLocked() {
	select {
	case <-j.done:
	default:
		close(j.done)
	}
}

// begin transitions queued → running; it returns false when the job
// was cancelled while queued, in which case the worker must skip it.
func (j *job) begin() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.st != StateQueued {
		return false
	}
	j.st = StateRunning
	j.started = time.Now()
	j.home.queued.Add(-1)
	j.home.running.Add(1)
	j.timeline.Mark("solving")
	return true
}

// finish records the solver's outcome. Cancellation wins over the
// solver's return: a run that was asked to stop reports StateCancelled
// whether the solver surfaced its best-so-far (partial but error-free)
// or surfaced the context error itself — a zero-budget heuristic that
// noticed the cancel and returned ctx.Err() was previously misfiled as
// StateFailed. A genuine solver error still reports StateFailed even
// when a cancel raced it, so failure detail is never masked.
//
// finish does NOT release Wait waiters: the worker folds the retired
// job into the stats delta and metrics first and then calls
// signalDone, so a Wait-then-read of any counter observes the job.
func (j *job) finish(res *solver.Result, err error) {
	j.mu.Lock()
	j.finished = time.Now()
	j.result = res
	cancelled := j.cancelReq || j.ctx.Err() != nil
	switch {
	case err != nil && !(cancelled && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))):
		j.st = StateFailed
		j.err = err
	case cancelled:
		j.st = StateCancelled
	default:
		j.st = StateDone
	}
	j.home.running.Add(-1)
	j.timeline.Mark(string(j.st))
	j.mu.Unlock()
	j.cancel() // release the context's resources
}

// signalDone releases Wait waiters; idempotent (a job cancelled while
// queued already closed done in requestCancel).
func (j *job) signalDone() {
	j.mu.Lock()
	j.closeDoneLocked()
	j.mu.Unlock()
}

// requestCancel marks the job for cancellation. A queued job is
// finalized on the spot; a running one is signalled through its
// context and finalized by finish.
func (j *job) requestCancel() {
	j.mu.Lock()
	if j.st.Terminal() {
		j.mu.Unlock()
		return
	}
	j.cancelReq = true
	if j.st == StateQueued {
		j.st = StateCancelled
		j.finished = time.Now()
		j.home.queued.Add(-1)
		j.timeline.Mark(string(StateCancelled))
		j.closeDoneLocked()
	}
	j.mu.Unlock()
	j.cancel()
}

// release frees the job's context when it was never enqueued.
func (j *job) release() { j.cancel() }

func (j *job) state() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.st
}

// markDequeued records that a worker drained the job from the queue
// channel; from here on the janitor may evict it once terminal.
func (j *job) markDequeued() {
	j.mu.Lock()
	j.dequeued = true
	j.mu.Unlock()
}

// evictable reports whether the janitor may drop the job: terminal,
// finished before the retention cutoff, and no longer sitting in the
// queue channel.
func (j *job) evictable(cutoff time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.st.Terminal() && j.dequeued && j.finished.Before(cutoff)
}

// snapshot builds the public view under the job lock.
func (j *job) snapshot() Job {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := Job{
		ID:          j.id,
		Solver:      j.spec.Solver,
		Instance:    j.inst.Name,
		Tasks:       j.inst.T,
		Machines:    j.inst.M,
		Budget:      j.budget,
		Seed:        j.spec.Seed,
		State:       j.st,
		RequestID:   j.spec.RequestID,
		SubmittedAt: j.submitted,
		StartedAt:   j.started,
		FinishedAt:  j.finished,
	}
	if j.err != nil {
		out.Error = j.err.Error()
	}
	if r := j.result; r != nil && r.Best != nil {
		out.Result = &JobResult{
			Makespan:         r.BestFitness,
			Flowtime:         r.Best.Flowtime(),
			Utilization:      r.Best.Utilization(),
			ImbalanceCV:      r.Best.ImbalanceCV(),
			Evaluations:      r.Evaluations,
			Generations:      r.Generations,
			LocalSearchMoves: r.LocalSearchMoves,
			Duration:         r.Duration,
			EffectiveBudget:  r.EffectiveBudget,
			PerConstituent:   append([]solver.ConstituentResult(nil), r.Constituents...),
			Assignment:       append([]int(nil), r.Best.S...),
		}
	}
	return out
}
