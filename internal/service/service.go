// Package service turns the solver library into a long-running
// scheduling service: clients submit solve jobs (an ETC instance spec
// or an inline matrix, a registered solver name, and a budget), jobs
// land on one bounded FIFO run queue, and a fixed pool of workers
// executes them through solver.Lookup with a per-job context, so
// cancellation and deadlines ride the shared budget engine.
//
// The core is one mutex-guarded job store and one buffered channel:
// Submit assigns a sequential job ID, records the job and sends it on
// the channel while holding the store's lock, and every worker ranges
// over the channel. Workers add each job they retire to atomic
// counters (service-wide, and per solver name); /v1/stats and /metrics
// load those counters at read time, with zero lock acquisition on the
// read path. Each counter is individually monotone, and a job is in
// every counter once Wait on it returns.
//
// Around that core the package provides a job manager with stable job
// IDs and a queued → running → done/failed/cancelled lifecycle, result
// retention with TTL-based eviction, an LRU instance cache (the twelve
// benchmark ETC matrices are generated once and shared across jobs),
// and per-solver throughput/latency counters exposed as a stats
// snapshot.
//
// Server is embeddable from Go (re-exported on the gridsched facade);
// Handler exposes the same operations as an HTTP/JSON API, served
// stand-alone by cmd/gridschedd.
package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gridsched/internal/etc"
	"gridsched/internal/solver"

	// The service dispatches by registry name; force-link every
	// self-registering solver family so a Server embedded without the
	// gridsched facade still sees the full registry.
	_ "gridsched/internal/baselines"
	_ "gridsched/internal/core"
	_ "gridsched/internal/heuristics"
	_ "gridsched/internal/islands"
	_ "gridsched/internal/portfolio"
	_ "gridsched/internal/tabu"
)

// Sentinel errors mapped to HTTP statuses by the handler.
var (
	// ErrQueueFull rejects a submit when the bounded job queue is at
	// capacity (backpressure; HTTP 429).
	ErrQueueFull = errors.New("service: job queue full")
	// ErrClosed rejects operations after Shutdown started.
	ErrClosed = errors.New("service: server closed")
	// ErrNotFound reports an unknown (or already evicted) job ID.
	ErrNotFound = errors.New("service: job not found")
)

// Config parameterizes a Server. The zero value is usable: every field
// falls back to the default documented on it.
type Config struct {
	// Workers is the number of concurrent solve workers (default
	// GOMAXPROCS). Each worker runs one job at a time, taking jobs off
	// the shared run queue in submit order.
	Workers int
	// QueueSize is the run queue's capacity; submits beyond it fail
	// with ErrQueueFull (default 64). A job cancelled while queued
	// holds its slot until a worker drains it.
	QueueSize int
	// ResultTTL is how long a finished job (done, failed or cancelled)
	// stays retrievable before the janitor evicts it (default 15 min).
	ResultTTL time.Duration
	// SweepInterval is how often the janitor scans for expired results
	// (default ResultTTL/4, floored at one second).
	SweepInterval time.Duration
	// CacheSize bounds the LRU instance cache in entries (default 16 —
	// room for the whole 12-instance benchmark suite).
	CacheSize int
	// MaxDuration caps every job's wall-clock budget; specs asking for
	// more (or for no time bound at all) are clamped to it. Zero means
	// no cap.
	MaxDuration time.Duration
	// MaxMatrixEntries caps tasks×machines for any instance a job may
	// reference — a sized benchmark name ("u_c_hihi.0@4096x64") or an
	// inline matrix. Specs beyond it are rejected at Submit, bounding
	// worst-case instance-cache memory to roughly CacheSize ×
	// MaxMatrixEntries × 8 bytes. Zero means the default (1<<20
	// entries ≈ 8 MB per instance); negative disables the cap (for
	// trusted embedders like the scenario sweep).
	MaxMatrixEntries int
	// Logger receives structured job-lifecycle records (submit, start,
	// finish) with job and request IDs. Nil discards them.
	Logger *slog.Logger
	// InstanceDB, when set, is a read-only repository of pre-generated
	// instances (an instdb store) consulted before the generation cache
	// for named instances. A store hit serves a shared zero-copy view
	// with no generation, no lock and no LRU churn; names the store
	// does not hold fall back to on-demand generation through the
	// cache. The store is operator-provided and therefore trusted: a
	// stored instance is served even past MaxMatrixEntries.
	InstanceDB InstanceStore
}

// InstanceStore is the read-only instance repository the server
// consults before generating matrices on demand — implemented by
// instdb.Store and (reloadably) instdb.DB.
type InstanceStore interface {
	// Get returns the named instance and whether the store holds it.
	// Returned instances are shared and must be immutable.
	Get(name string) (*etc.Instance, bool)
	// Len is the number of instances currently held.
	Len() int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 64
	}
	if c.ResultTTL <= 0 {
		c.ResultTTL = 15 * time.Minute
	}
	if c.SweepInterval <= 0 {
		c.SweepInterval = c.ResultTTL / 4
		if c.SweepInterval < time.Second {
			c.SweepInterval = time.Second
		}
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 16
	}
	if c.MaxMatrixEntries == 0 {
		c.MaxMatrixEntries = 1 << 20
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	return c
}

// Server is the scheduling service: a job store, one bounded run
// queue drained by a worker pool, lock-free stats counters and an
// instance cache behind one embeddable API. Create it with New, submit
// with Submit, and stop it with Shutdown. All methods are safe for
// concurrent use.
type Server struct {
	cfg   Config
	cache *instanceCache
	met   *serverMetrics
	log   *slog.Logger
	start time.Time

	baseCtx context.Context // parent of every job context
	stop    context.CancelFunc

	// queue is the run queue; workers range over it. Its capacity,
	// QueueSize, is the backpressure bound Submit enforces. Only Submit
	// sends, and BeginDrain closes it, both holding mu.
	queue chan *job

	// mu guards the job store and orders every send on queue before
	// the close. closed is written under mu and read lock-free by
	// Draining.
	mu     sync.Mutex
	closed atomic.Bool
	seq    uint64
	jobs   map[string]*job

	gauges gauges

	workers sync.WaitGroup
	janitor sync.WaitGroup

	evicted     atomic.Int64
	storeServes atomic.Int64 // named resolutions served by InstanceDB

	// solvers maps a solver name to its *solverCounters. Names are
	// keys, not registry indices, because schemes such as
	// "portfolio:pa-cga+tabu" resolve to names at Submit time.
	solvers sync.Map
}

// gauges are the live job counters, updated on job state transitions
// and read lock-free by Stats and the /metrics gauge funcs. They are
// tied to the job state machine (a job cancelled while queued leaves
// `queued` even though it still occupies a queue slot), so the gauges
// can never drift from the states the job API reports.
type gauges struct {
	queued    atomic.Int64
	running   atomic.Int64
	retained  atomic.Int64
	peakDepth atomic.Int64 // high-water mark of queued
	submitted atomic.Int64
	finished  atomic.Int64 // jobs retired by the workers
}

// New starts a Server: its worker pool and retention janitor run until
// Shutdown.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		cache:   newInstanceCache(cfg.CacheSize),
		log:     cfg.Logger,
		start:   time.Now(),
		baseCtx: ctx,
		stop:    cancel,
		queue:   make(chan *job, cfg.QueueSize),
		jobs:    make(map[string]*job),
	}
	s.met = newServerMetrics(s)
	s.workers.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.runWorker()
	}
	s.janitor.Add(1)
	go s.sweepLoop()
	return s
}

// Config returns the effective (defaulted) configuration.
func (s *Server) Config() Config { return s.cfg }

// Submit validates the spec, assigns a job ID and enqueues the job.
// It fails fast: an unknown solver or a bad instance spec is reported
// here (never as a failed job), and a full queue returns ErrQueueFull
// so callers can apply backpressure.
func (s *Server) Submit(spec JobSpec) (Job, error) {
	j, err := s.submit(spec)
	if err != nil {
		s.met.rejected.With(rejectReason(err)).Inc()
		s.log.Warn("job rejected",
			"solver", spec.Solver, "instance", spec.Instance,
			"request_id", spec.RequestID, "error", err.Error())
		return Job{}, err
	}
	s.met.submitted.Inc()
	s.log.Info("job submitted",
		"job_id", j.ID, "solver", j.Solver, "instance", j.Instance,
		"request_id", spec.RequestID)
	return j, nil
}

func (s *Server) submit(spec JobSpec) (Job, error) {
	sv, err := solver.Lookup(spec.Solver)
	if err != nil {
		return Job{}, err
	}
	inst, err := s.resolveInstance(spec)
	if err != nil {
		return Job{}, err
	}
	budget := spec.Budget
	if s.cfg.MaxDuration > 0 && (budget.MaxDuration <= 0 || budget.MaxDuration > s.cfg.MaxDuration) {
		budget.MaxDuration = s.cfg.MaxDuration
	}
	if spec.Seed != 0 {
		sv = solver.WithSeed(sv, spec.Seed)
	}
	j := newJob(spec, sv, inst, budget, s.baseCtx, &s.gauges)

	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		j.release()
		return Job{}, ErrClosed
	}
	if len(s.queue) == cap(s.queue) {
		s.mu.Unlock()
		j.release()
		return Job{}, ErrQueueFull
	}
	s.seq++
	j.seq = s.seq
	j.id = fmt.Sprintf("j%08d", s.seq)
	s.jobs[j.id] = j
	s.gauges.submitted.Add(1)
	s.gauges.retained.Add(1)
	storeMax(&s.gauges.peakDepth, s.gauges.queued.Add(1))
	// Only Submit sends, and it holds mu, so the queue cannot have
	// filled since the length check: the send never blocks.
	select {
	case s.queue <- j:
	default:
		panic("service: run queue filled under mu")
	}
	s.mu.Unlock()
	return j.snapshot(), nil
}

// lookupJob returns the live record behind a job ID.
func (s *Server) lookupJob(id string) (*job, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	return j, ok
}

// Job returns a snapshot of the identified job.
func (s *Server) Job(id string) (Job, error) {
	j, ok := s.lookupJob(id)
	if !ok {
		return Job{}, ErrNotFound
	}
	return j.snapshot(), nil
}

// Wait blocks until the identified job reaches a terminal state (done,
// failed or cancelled) and returns its final snapshot, or returns the
// context's error if ctx fires first. It is the synchronous companion
// to the polling Job accessor: batch harnesses (the scenario sweep)
// submit a wave of jobs and Wait on each instead of spinning.
//
// Wait does not extend retention: a job evicted by the janitor before
// Wait is called reports ErrNotFound.
func (s *Server) Wait(ctx context.Context, id string) (Job, error) {
	j, ok := s.lookupJob(id)
	if !ok {
		return Job{}, ErrNotFound
	}
	select {
	case <-j.done:
		return j.snapshot(), nil
	case <-ctx.Done():
		return Job{}, ctx.Err()
	}
}

// Jobs snapshots every retained job, newest first.
func (s *Server) Jobs() []Job {
	return s.ListJobs("", 0)
}

// ListJobs snapshots retained jobs newest first, optionally filtered
// by state ("" matches every state) and truncated to limit (0 means
// unlimited). Snapshots are built only for jobs that survive the
// filter and the cut, so listing a few jobs out of a large retained
// set does not copy everything under a lock.
func (s *Server) ListJobs(state JobState, limit int) []Job {
	var matched []*job
	s.mu.Lock()
	for _, j := range s.jobs {
		if state == "" || j.state() == state {
			matched = append(matched, j)
		}
	}
	s.mu.Unlock()
	// seq is immutable after publication, so ordering and cutting need
	// no locks; only the survivors pay for a snapshot.
	sort.Slice(matched, func(a, b int) bool { return matched[a].seq > matched[b].seq })
	if limit > 0 && len(matched) > limit {
		matched = matched[:limit]
	}
	out := make([]Job, len(matched))
	for i, j := range matched {
		out[i] = j.snapshot()
	}
	return out
}

// Cancel requests cancellation of a job. A queued job is marked
// cancelled immediately (workers skip it); a running job has its
// context cancelled, which stops the solver at the budget engine's
// next poll. Cancelling a finished job is a no-op. The returned
// snapshot reflects the state after the request.
func (s *Server) Cancel(id string) (Job, error) {
	j, ok := s.lookupJob(id)
	if !ok {
		return Job{}, ErrNotFound
	}
	j.requestCancel()
	return j.snapshot(), nil
}

// Stats returns the service-level and per-solver counters, each loaded
// from its live atomic. It acquires no lock — safe to call at any
// scrape rate regardless of what the job store is doing. Every counter
// is individually monotone, and a job is in every counter once Wait on
// it has returned; the Stats type says what a read under load shows.
func (s *Server) Stats() Stats {
	st := Stats{
		Uptime:        time.Since(s.start),
		Workers:       s.cfg.Workers,
		QueueCapacity: s.cfg.QueueSize,
		Evicted:       s.evicted.Load(),
		StoreServes:   s.storeServes.Load(),
	}
	s.solvers.Range(func(name, c any) bool {
		st.Solvers = append(st.Solvers, deriveSolverStats(name.(string), c.(*solverCounters)))
		return true
	})
	sort.Slice(st.Solvers, func(i, j int) bool { return st.Solvers[i].Solver < st.Solvers[j].Solver })
	st.CacheHits, st.CacheMisses, st.CacheJoins, st.CacheEntries = s.cache.counters()
	if db := s.cfg.InstanceDB; db != nil {
		st.StoreInstances = db.Len()
	}
	g := &s.gauges
	st.Queued = int(g.queued.Load())
	st.Running = int(g.running.Load())
	st.Retained = int(g.retained.Load())
	st.Shards = []ShardStats{{
		Submitted:      g.submitted.Load(),
		Finished:       g.finished.Load(),
		Queued:         st.Queued,
		Running:        st.Running,
		Retained:       st.Retained,
		QueueDepthPeak: int(g.peakDepth.Load()),
	}}
	return st
}

// BeginDrain marks the server draining without waiting: submits are
// refused with ErrClosed, the health endpoint reports 503, queued and
// running jobs continue. Call it before stopping an HTTP frontend so
// in-flight clients observe the draining state; Shutdown calls it
// implicitly. Idempotent. When BeginDrain returns, no further job can
// be accepted: closed is set and the queue closed under mu, so every
// submit either enqueued before the fence or sees closed.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Swap(true) {
		return
	}
	close(s.queue)
}

// Shutdown drains the service: submits are refused, queued jobs still
// execute, and Shutdown returns when every worker has exited — unless
// ctx expires first, in which case all in-flight jobs are cancelled
// (through their budget contexts) and the drain completes as fast as
// the solvers' cancellation polls allow. The janitor is always
// stopped. Shutdown is idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.BeginDrain()

	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()

	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.stop() // cancel every in-flight job, then finish the drain
		<-done
	}
	s.stop()
	s.janitor.Wait()
	return err
}

// Close is Shutdown with no deadline: it cancels in-flight work
// immediately and waits for the pool to exit.
func (s *Server) Close() error {
	s.stop()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.Shutdown(ctx)
	if errors.Is(err, context.Canceled) {
		err = nil
	}
	return err
}

// sweepLoop evicts finished jobs past their retention TTL.
func (s *Server) sweepLoop() {
	defer s.janitor.Done()
	tick := time.NewTicker(s.cfg.SweepInterval)
	defer tick.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-tick.C:
			s.evictExpired(time.Now())
		}
	}
}

// evictExpired drops every terminal job finished before the retention
// cutoff — except jobs still occupying a queue slot (cancelled while
// queued, not yet drained by a worker), which stay until dequeued so
// the worker never retires a ghost the store no longer knows.
func (s *Server) evictExpired(now time.Time) {
	cutoff := now.Add(-s.cfg.ResultTTL)
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, j := range s.jobs {
		if j.evictable(cutoff) {
			delete(s.jobs, id)
			s.gauges.retained.Add(-1)
			s.evicted.Add(1)
		}
	}
}
