package service

import (
	"math"
	"sync/atomic"
	"time"
)

// SolverStats aggregates the finished jobs of one solver name.
type SolverStats struct {
	Solver    string
	Done      int64
	Failed    int64
	Cancelled int64
	// Evaluations sums the fitness evaluations of every finished run —
	// the paper's throughput currency.
	Evaluations int64
	// BusyTime sums wall time spent solving (queue wait excluded).
	BusyTime time.Duration
	// MeanLatency and MaxLatency summarize per-run solve time.
	MeanLatency time.Duration
	MaxLatency  time.Duration
	// EvalsPerSecond is the solver's aggregate evaluation throughput.
	EvalsPerSecond float64
}

// ShardStats describes the one run queue: live occupancy gauges plus
// cumulative intake and retirement counters. It is kept as the single
// row of Stats.Shards for readers of the former per-shard breakdown;
// Shard is always 0 and Stolen always 0, since there is no other queue
// to take jobs from.
type ShardStats struct {
	Shard          int
	Submitted      int64
	Finished       int64
	Stolen         int64
	Queued         int
	Running        int
	Retained       int
	QueueDepthPeak int
}

// Stats is a snapshot of the service's live atomic counters, read one
// by one with no lock. Each counter is monotone (the gauges aside) but
// the set is not read atomically, so under load the queue's and the
// per-solver totals can differ by jobs retiring mid-read. A job is in
// every counter once Wait on it has returned.
type Stats struct {
	Uptime        time.Duration
	Workers       int
	QueueCapacity int
	Queued        int
	Running       int
	Retained      int
	Evicted       int64

	CacheHits int64
	// CacheJoins counts requests served by riding another request's
	// in-flight generation (single-flight joins) — neither a hit on a
	// cached entry nor a fresh miss.
	CacheJoins   int64
	CacheMisses  int64
	CacheEntries int

	// StoreServes counts named-instance resolutions served by the
	// configured pre-generated instance store (Config.InstanceDB),
	// split out from cache hits/misses; StoreInstances is the store's
	// current corpus size (0 when no store is configured).
	StoreServes    int64
	StoreInstances int

	Solvers []SolverStats
	// Shards holds one row, the run queue's ShardStats.
	Shards []ShardStats
}

// deriveSolverStats turns one solver's raw counters into the public
// stats shape, computing the derived latency and throughput figures.
func deriveSolverStats(name string, c *solverCounters) SolverStats {
	s := SolverStats{
		Solver:      name,
		Done:        c.done.Load(),
		Failed:      c.failed.Load(),
		Cancelled:   c.cancelled.Load(),
		Evaluations: c.evaluations.Load(),
		BusyTime:    time.Duration(c.busy.Load()),
		MaxLatency:  time.Duration(c.maxLatency.Load()),
	}
	s.MeanLatency = meanLatency(s.BusyTime, c.ran.Load())
	s.EvalsPerSecond = safeRate(float64(s.Evaluations), s.BusyTime.Seconds())
	return s
}

// meanLatency divides defensively: a burst of heuristic jobs can
// retire with ran == 0 busy samples (or a clock too coarse to tick),
// and a mean of nothing is 0, not a division fault.
func meanLatency(busy time.Duration, ran int64) time.Duration {
	if ran <= 0 {
		return 0
	}
	return busy / time.Duration(ran)
}

// safeRate computes n per second over sec, returning 0 instead of the
// ±Inf/NaN a zero (or degenerate) denominator would produce —
// encoding/json refuses non-finite floats, so one poisoned counter
// would otherwise break the whole /v1/stats payload.
func safeRate(n, sec float64) float64 {
	if sec <= 0 {
		return 0
	}
	if r := n / sec; !math.IsInf(r, 0) && !math.IsNaN(r) {
		return r
	}
	return 0
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

// solverCounters aggregates the retired jobs of one solver name.
// Workers add to it as they retire jobs and readers load each field
// on its own, so every counter is monotone and no read takes a lock.
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
