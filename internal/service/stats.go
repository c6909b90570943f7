package service

import (
	"math"
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

// ShardStats is one shard's slice of the service: live occupancy
// gauges plus cumulative retirement counters.
// Submitted counts jobs placed on this shard at intake; Finished
// counts jobs retired by this shard's workers (a stolen job counts on
// the thief, which is what makes imbalance visible); Stolen is the
// subset of Finished taken from another shard's queue.
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
// the set is not read atomically, so under load per-shard and
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
	Shards  []ShardStats
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
