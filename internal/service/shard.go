package service

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// shard is one slice of the service core: a local job store, a local
// FIFO run queue and local stats, owned by the workers pinned to it.
// Jobs are placed on a shard at Submit (round-robin) and carry the
// shard index in their ID, so every later operation — dispatch, state
// transition, Cancel, Job, Wait, Trace, eviction — touches only this
// shard's state. The cross-shard paths are an idle worker stealing
// queued jobs from a loaded neighbor, and the server-wide per-solver
// stats counters every worker adds to.
type shard struct {
	idx int

	// mu guards the job store and the run queue. It is shard-local:
	// submits, dispatches and lookups on different shards never contend.
	mu   sync.Mutex
	seq  uint64
	jobs map[string]*job
	q    []*job // FIFO; q[head:] are waiting jobs
	head int

	// Live gauges, updated on job state transitions and read lock-free
	// by Stats and the /metrics gauge funcs. They are tied to the job
	// state machine (a job cancelled while queued leaves `queued` even
	// though it still occupies a queue slot), so the gauges can never
	// drift from the states the job API reports.
	queued    atomic.Int64
	running   atomic.Int64
	retained  atomic.Int64
	peakDepth atomic.Int64
	submitted atomic.Int64

	// Retirement counters. Workers pinned to this shard add every job
	// they retire (their own or stolen) here; readers load them with
	// no lock.
	finished atomic.Int64 // jobs retired by this shard's workers
	stolen   atomic.Int64 // of those, jobs taken from another shard's queue
}

func newShard(idx int) *shard {
	return &shard{
		idx:  idx,
		jobs: make(map[string]*job),
	}
}

// pop removes and returns the oldest queued job, or nil when the queue
// is empty. Callers own the global queue-length decrement.
func (sh *shard) pop() *job {
	sh.mu.Lock()
	if sh.head >= len(sh.q) {
		sh.mu.Unlock()
		return nil
	}
	j := sh.q[sh.head]
	sh.q[sh.head] = nil
	sh.head++
	if sh.head == len(sh.q) {
		sh.q = sh.q[:0]
		sh.head = 0
	}
	sh.mu.Unlock()
	return j
}

// noteQueued bumps the queued gauge and folds the new depth into the
// peak watermark.
func (sh *shard) noteQueued() {
	storeMax(&sh.peakDepth, sh.queued.Add(1))
}

// storeMax raises a to v unless it already holds at least v.
func storeMax(a *atomic.Int64, v int64) {
	for {
		p := a.Load()
		if v <= p || a.CompareAndSwap(p, v) {
			return
		}
	}
}

// jobID renders a shard-qualified job ID. The shard index rides in the
// prefix so every by-ID operation routes straight to the owning shard.
func jobID(shard int, seq uint64) string {
	return fmt.Sprintf("j%d-%08d", shard, seq)
}

// parseShardID extracts the shard index from a job ID ("j3-00000042").
// Malformed IDs report ok=false; callers answer ErrNotFound, which is
// also what a well-formed ID for an evicted job gets.
func parseShardID(id string) (shard int, ok bool) {
	if len(id) < 2 || id[0] != 'j' {
		return 0, false
	}
	dash := strings.IndexByte(id, '-')
	if dash < 2 {
		return 0, false
	}
	n, err := strconv.Atoi(id[1:dash])
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// solverCounters aggregates the retired jobs of one solver name
// across every shard. Workers add to it as they retire jobs and
// readers load each field on its own, so every counter is monotone
// and no read takes a lock.
type solverCounters struct {
	done, failed, cancelled atomic.Int64
	evaluations             atomic.Int64
	busy                    atomic.Int64 // ns
	maxLatency              atomic.Int64 // ns
	ran                     atomic.Int64
}

// fold adds one retired job's snapshot to the counters.
func (c *solverCounters) fold(j Job) {
	switch j.State {
	case StateDone:
		c.done.Add(1)
	case StateFailed:
		c.failed.Add(1)
	case StateCancelled:
		c.cancelled.Add(1)
	}
	if !j.StartedAt.IsZero() && !j.FinishedAt.IsZero() {
		latency := int64(j.FinishedAt.Sub(j.StartedAt))
		c.busy.Add(latency)
		c.ran.Add(1)
		storeMax(&c.maxLatency, latency)
	}
	if j.Result != nil {
		c.evaluations.Add(j.Result.Evaluations)
	}
}
