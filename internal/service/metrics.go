package service

import (
	"errors"
	"time"

	"gridsched/internal/obs"
)

// serverMetrics is the server's registered metric handles. Gauges that
// mirror existing server state (queue depth, cache counters, retained
// jobs) are scrape-time funcs over the authoritative structures, so
// the metrics can never drift from /v1/stats; only event counters and
// the busy gauge are written on the hot path. Every scrape-time func
// reads atomics — a scrape acquires no lock, so /metrics can never
// stall (or be stalled by) the job store.
type serverMetrics struct {
	reg *obs.Registry

	submitted *obs.Counter
	rejected  *obs.CounterVec
	finished  *obs.CounterVec
	latency   *obs.HistogramVec
	evals     *obs.CounterVec
	busy      *obs.Gauge
	http      *obs.CounterVec
}

// latencyBuckets spans 1ms to ~4.4min log-spaced — wide enough for
// zero-budget heuristics and multi-minute GA budgets alike.
var latencyBuckets = obs.ExpBuckets(0.001, 4, 10)

func newServerMetrics(s *Server) *serverMetrics {
	reg := obs.NewRegistry()
	m := &serverMetrics{reg: reg}

	reg.GaugeFunc("gridsched_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })
	// Depth is state-derived (jobs still in StateQueued), read from the
	// gauge the job state machine maintains — not len(queue): a job
	// cancelled while queued stays in its slot until a worker drains
	// it, and counting that dead slot made this gauge drift from the
	// Queued field of /v1/stats. Both read the same gauge, the single
	// source.
	reg.GaugeFunc("gridsched_queue_depth", "Jobs queued awaiting dispatch (state-derived; matches /v1/stats).",
		func() float64 { return float64(s.gauges.queued.Load()) })
	reg.GaugeFunc("gridsched_queue_capacity", "Total capacity of the submission queue (service-wide).",
		func() float64 { return float64(s.cfg.QueueSize) })
	reg.GaugeFunc("gridsched_workers", "Size of the solve worker pool.",
		func() float64 { return float64(s.cfg.Workers) })
	m.busy = reg.Gauge("gridsched_workers_busy", "Workers currently solving a job.")
	reg.GaugeFunc("gridsched_jobs_retained", "Jobs retained in memory (all states).",
		func() float64 { return float64(s.gauges.retained.Load()) })

	m.submitted = reg.Counter("gridsched_jobs_submitted_total", "Jobs accepted by Submit.")
	m.rejected = reg.CounterVec("gridsched_jobs_rejected_total", "Jobs refused at Submit, by reason.", "reason")
	m.finished = reg.CounterVec("gridsched_jobs_finished_total",
		"Jobs retired, by terminal state; a run whose solver panicked counts under the panic label (the job itself reports state failed).", "state")
	m.latency = reg.HistogramVec("gridsched_job_latency_seconds", "Solve wall time per job (queue wait excluded).",
		latencyBuckets, "solver")
	m.evals = reg.CounterVec("gridsched_job_evaluations_total", "Fitness evaluations performed by finished jobs.", "solver")

	reg.CounterFunc("gridsched_jobs_evicted_total", "Finished jobs dropped by the retention janitor.",
		func() int64 { return s.evicted.Load() })

	reg.CounterFunc("gridsched_cache_hits_total", "Instance cache hits on a cached entry.",
		func() int64 { h, _, _, _ := s.cache.counters(); return h })
	reg.CounterFunc("gridsched_cache_misses_total", "Instance cache misses (fresh generations).",
		func() int64 { _, mi, _, _ := s.cache.counters(); return mi })
	reg.CounterFunc("gridsched_cache_joins_total", "Requests served by joining an in-flight generation (single-flight).",
		func() int64 { _, _, j, _ := s.cache.counters(); return j })
	reg.GaugeFunc("gridsched_cache_entries", "Instances currently cached.",
		func() float64 { _, _, _, e := s.cache.counters(); return float64(e) })

	reg.CounterFunc("gridsched_store_serves_total", "Named-instance resolutions served by the pre-generated instance store.",
		func() int64 { return s.storeServes.Load() })
	reg.GaugeFunc("gridsched_store_instances", "Instances held by the configured instance store (0 without one).",
		func() float64 {
			if db := s.cfg.InstanceDB; db != nil {
				return float64(db.Len())
			}
			return 0
		})

	m.http = reg.CounterVec("gridsched_http_requests_total", "HTTP responses served, by status code and method.",
		"code", "method")
	return m
}

// Metrics returns the server's metric registry, for embedding in a
// larger process's exposition. The HTTP handler already serves it at
// GET /metrics.
func (s *Server) Metrics() *obs.Registry { return s.met.reg }

// rejectReason maps a Submit error to the rejected-counter label.
func rejectReason(err error) string {
	switch {
	case errors.Is(err, ErrQueueFull):
		return "queue_full"
	case errors.Is(err, ErrClosed):
		return "closed"
	default:
		return "invalid"
	}
}
