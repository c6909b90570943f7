// Package loadgen is a closed-loop load generator for the scheduling
// service's HTTP API. A fixed pool of clients submits solve jobs drawn
// from weighted solver and instance mixes, polls each job to a
// terminal state, and reports achieved throughput plus submit and
// end-to-end latency percentiles — the harness behind cmd/loadgen and
// the service-level throughput benchmark.
//
// Closed-loop means each client has at most one job in flight: offered
// load adapts to service capacity instead of piling an unbounded
// backlog onto the queue. An optional TargetQPS paces submissions
// below the closed-loop maximum; without it the pool runs as fast as
// the service completes work.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gridsched/internal/rng"
)

// Config parameterizes one load run. BaseURL and Duration are
// required; everything else has a usable default.
type Config struct {
	// BaseURL is the service root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Client is the HTTP client to use (default http.DefaultClient).
	Client *http.Client
	// Concurrency is the closed-loop client count (default 4).
	Concurrency int
	// TargetQPS, when positive, paces aggregate submissions to roughly
	// that rate; zero runs fully closed-loop (as fast as completions
	// allow).
	TargetQPS float64
	// Duration is how long to generate load (measured, after Warmup).
	Duration time.Duration
	// Warmup is discarded lead time: jobs submitted before the warmup
	// deadline do not count toward the report (default 0).
	Warmup time.Duration
	// SolverMix is a weighted mix "name:weight,name:weight" (weight
	// defaults to 1), e.g. "minmin:3,tabu:1" (default "minmin").
	SolverMix string
	// InstanceMix is a weighted mix over instance names (default
	// "u_c_hihi.0@64x8").
	InstanceMix string
	// MaxEvaluations bounds each submitted job's budget (0 = none).
	MaxEvaluations int64
	// PollInterval is the job status polling cadence (default 2ms).
	PollInterval time.Duration
	// Seed makes the mix draws deterministic (default 1).
	Seed uint64
}

func (c Config) withDefaults() (Config, error) {
	if c.BaseURL == "" {
		return c, fmt.Errorf("loadgen: BaseURL is required")
	}
	if c.Duration <= 0 {
		return c, fmt.Errorf("loadgen: Duration must be positive")
	}
	if c.Client == nil {
		c.Client = http.DefaultClient
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 4
	}
	if c.SolverMix == "" {
		c.SolverMix = "minmin"
	}
	if c.InstanceMix == "" {
		c.InstanceMix = "u_c_hihi.0@64x8"
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 2 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c, nil
}

// mix is a weighted choice over names.
type mix struct {
	names   []string
	weights []int
	total   int
}

// parseMix parses "name:weight,name:weight"; a bare name gets weight 1.
func parseMix(s string) (*mix, error) {
	m := &mix{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, w := part, 1
		if i := strings.LastIndexByte(part, ':'); i >= 0 {
			n, err := strconv.Atoi(part[i+1:])
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("loadgen: bad weight in mix entry %q", part)
			}
			name, w = part[:i], n
		}
		if name == "" {
			return nil, fmt.Errorf("loadgen: empty name in mix entry %q", part)
		}
		m.names = append(m.names, name)
		m.weights = append(m.weights, w)
		m.total += w
	}
	if len(m.names) == 0 {
		return nil, fmt.Errorf("loadgen: empty mix %q", s)
	}
	return m, nil
}

// pick draws one name with probability proportional to its weight.
func (m *mix) pick(r *rng.Rand) string {
	if len(m.names) == 1 {
		return m.names[0]
	}
	n := r.Intn(m.total)
	for i, w := range m.weights {
		if n < w {
			return m.names[i]
		}
		n -= w
	}
	return m.names[len(m.names)-1]
}

// LatencySummary summarizes one latency distribution.
type LatencySummary struct {
	Count int           `json:"count"`
	Min   time.Duration `json:"min"`
	Mean  time.Duration `json:"mean"`
	P50   time.Duration `json:"p50"`
	P95   time.Duration `json:"p95"`
	P99   time.Duration `json:"p99"`
	Max   time.Duration `json:"max"`
}

// summarize sorts samples in place and extracts the summary.
func summarize(samples []time.Duration) LatencySummary {
	if len(samples) == 0 {
		return LatencySummary{}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	var sum time.Duration
	for _, d := range samples {
		sum += d
	}
	return LatencySummary{
		Count: len(samples),
		Min:   samples[0],
		Mean:  sum / time.Duration(len(samples)),
		P50:   quantile(samples, 0.50),
		P95:   quantile(samples, 0.95),
		P99:   quantile(samples, 0.99),
		Max:   samples[len(samples)-1],
	}
}

// quantile reads the q-th quantile from sorted samples (nearest-rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Report is the outcome of one load run. Counts cover only the
// measured window (after warmup); AchievedQPS is completed jobs per
// measured second.
type Report struct {
	Concurrency int           `json:"concurrency"`
	TargetQPS   float64       `json:"target_qps,omitempty"`
	Measured    time.Duration `json:"measured"`
	Warmup      time.Duration `json:"warmup,omitempty"`

	Submitted int64 `json:"submitted"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Cancelled int64 `json:"cancelled"`
	// Rejected counts 429 (queue-full) and 503 (draining) responses —
	// backpressure, not errors.
	Rejected int64 `json:"rejected"`

	AchievedQPS float64 `json:"achieved_qps"`

	// SubmitLatency is POST /v1/jobs round-trip time; E2ELatency is
	// submit-to-terminal-state (including queue wait, solve time and
	// polling quantization).
	SubmitLatency LatencySummary `json:"submit_latency"`
	E2ELatency    LatencySummary `json:"e2e_latency"`

	// Shards is the target's run-queue row (the one-element "shards"
	// array of /v1/stats), as deltas between the reads taken at the
	// start and end of the measured window. Empty when the target does
	// not report it.
	Shards []ShardReport `json:"shards,omitempty"`
}

// ShardReport is the measured-window delta for the target service's
// run queue. JobsPerSec is its retirement rate over the window;
// QueueDepthPeak is the server-lifetime high-water mark of its queued
// jobs. Shard and Stolen are always 0 against this repo's service,
// which has one queue and no stealing.
type ShardReport struct {
	Shard          int     `json:"shard"`
	Finished       int64   `json:"finished"`
	Stolen         int64   `json:"stolen"`
	JobsPerSec     float64 `json:"jobs_per_sec"`
	QueueDepthPeak int     `json:"queue_depth_peak"`
}

// shardStatsView is the slice of the /v1/stats run-queue row the
// generator needs.
type shardStatsView struct {
	Shard          int   `json:"shard"`
	Finished       int64 `json:"finished"`
	Stolen         int64 `json:"stolen"`
	QueueDepthPeak int   `json:"queue_depth_peak"`
}

// fetchShardStats reads the run-queue row's counters from /v1/stats.
func fetchShardStats(ctx context.Context, cfg Config) ([]shardStatsView, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, cfg.BaseURL+"/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("loadgen: GET /v1/stats: status %d", resp.StatusCode)
	}
	var body struct {
		Shards []shardStatsView `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, err
	}
	return body.Shards, nil
}

// shardBreakdown turns before/after shard snapshots into window deltas.
func shardBreakdown(before, after []shardStatsView, measured time.Duration) []ShardReport {
	if len(after) == 0 || measured <= 0 {
		return nil
	}
	base := map[int]shardStatsView{}
	for _, s := range before {
		base[s.Shard] = s
	}
	out := make([]ShardReport, 0, len(after))
	for _, s := range after {
		b := base[s.Shard] // zero-valued when the shard is new to us
		out = append(out, ShardReport{
			Shard:          s.Shard,
			Finished:       s.Finished - b.Finished,
			Stolen:         s.Stolen - b.Stolen,
			JobsPerSec:     float64(s.Finished-b.Finished) / measured.Seconds(),
			QueueDepthPeak: s.QueueDepthPeak,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Shard < out[j].Shard })
	return out
}

// String renders the report as a human-readable block.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "loadgen: %d clients", r.Concurrency)
	if r.TargetQPS > 0 {
		fmt.Fprintf(&b, ", target %.1f qps", r.TargetQPS)
	}
	fmt.Fprintf(&b, ", %v measured (%v warmup)\n", r.Measured.Round(time.Millisecond), r.Warmup)
	fmt.Fprintf(&b, "  jobs: %d submitted, %d completed, %d failed, %d cancelled, %d rejected\n",
		r.Submitted, r.Completed, r.Failed, r.Cancelled, r.Rejected)
	fmt.Fprintf(&b, "  throughput: %.1f jobs/s\n", r.AchievedQPS)
	fmt.Fprintf(&b, "  submit latency: %s\n", formatSummary(r.SubmitLatency))
	fmt.Fprintf(&b, "  e2e latency:    %s\n", formatSummary(r.E2ELatency))
	for _, s := range r.Shards {
		fmt.Fprintf(&b, "  shard %d: %.1f jobs/s (%d finished, %d stolen, queue peak %d)\n",
			s.Shard, s.JobsPerSec, s.Finished, s.Stolen, s.QueueDepthPeak)
	}
	return b.String()
}

func formatSummary(s LatencySummary) string {
	if s.Count == 0 {
		return "no samples"
	}
	return fmt.Sprintf("p50 %v  p95 %v  p99 %v  max %v (mean %v, n=%d)",
		s.P50.Round(time.Microsecond), s.P95.Round(time.Microsecond),
		s.P99.Round(time.Microsecond), s.Max.Round(time.Microsecond),
		s.Mean.Round(time.Microsecond), s.Count)
}

// collector accumulates samples from the client pool.
type collector struct {
	mu        sync.Mutex
	submitted int64
	completed int64
	failed    int64
	cancelled int64
	rejected  int64
	submitLat []time.Duration
	e2eLat    []time.Duration
}

// jobView is the slice of the job JSON the generator needs.
type jobView struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Error string `json:"error"`
}

// Run executes one load run and returns its report. The run ends when
// Warmup+Duration elapses or ctx is cancelled, whichever comes first;
// in-flight jobs are polled to completion (bounded by a short grace)
// so the service is quiet when Run returns.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	solvers, err := parseMix(cfg.SolverMix)
	if err != nil {
		return nil, fmt.Errorf("solver mix: %w", err)
	}
	instances, err := parseMix(cfg.InstanceMix)
	if err != nil {
		return nil, fmt.Errorf("instance mix: %w", err)
	}

	start := time.Now()
	measureFrom := start.Add(cfg.Warmup)
	deadline := measureFrom.Add(cfg.Duration)
	runCtx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()

	// Pacing: a token bucket refilled at TargetQPS. Closed-loop runs
	// get a nil channel (never blocks the select's default path).
	var tokens chan struct{}
	if cfg.TargetQPS > 0 {
		tokens = make(chan struct{}, cfg.Concurrency)
		interval := time.Duration(float64(time.Second) / cfg.TargetQPS)
		if interval <= 0 {
			interval = time.Nanosecond
		}
		go func() {
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for {
				select {
				case <-runCtx.Done():
					return
				case <-tick.C:
					select {
					case tokens <- struct{}{}:
					default: // bucket full; drop the token
					}
				}
			}
		}()
	}

	// Run-queue breakdown endpoints: one stats read as the measured
	// window opens, one after the pool drains. Best-effort — a target
	// without a shards array just yields no breakdown. The window opens
	// when the opening read returns, not at the nominal warmup end: a
	// job submitted after that cannot have retired before the read, so
	// the shard deltas cover every job the window counts.
	var (
		beforeShards []shardStatsView
		opened       atomic.Pointer[time.Time]
	)
	shardSampled := make(chan struct{})
	go func() {
		defer close(shardSampled)
		select {
		case <-runCtx.Done():
			return
		case <-time.After(time.Until(measureFrom)):
		}
		beforeShards, _ = fetchShardStats(runCtx, cfg)
		now := time.Now()
		opened.Store(&now)
	}()

	col := &collector{}
	var wg sync.WaitGroup
	for i := 0; i < cfg.Concurrency; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			client(runCtx, cfg, rng.New(cfg.Seed).Split(uint64(id)), solvers, instances, tokens, &opened, col)
		}(i)
	}
	wg.Wait()
	<-shardSampled

	openedAt := opened.Load()
	if openedAt == nil {
		return nil, fmt.Errorf("loadgen: run ended before the warmup finished")
	}
	measured := min(time.Since(*openedAt), cfg.Duration)

	// Close the shard window on a fresh context (runCtx is past its
	// deadline). A job's terminal state is published just before the
	// service counts its retirement, so a short settle lets the jobs
	// the pool polled terminal reach the shard counters.
	afterCtx, afterCancel := context.WithTimeout(context.Background(), 5*time.Second)
	time.Sleep(20 * time.Millisecond)
	afterShards, _ := fetchShardStats(afterCtx, cfg)
	afterCancel()

	col.mu.Lock()
	defer col.mu.Unlock()
	rep := &Report{
		Concurrency:   cfg.Concurrency,
		TargetQPS:     cfg.TargetQPS,
		Measured:      measured,
		Warmup:        cfg.Warmup,
		Submitted:     col.submitted,
		Completed:     col.completed,
		Failed:        col.failed,
		Cancelled:     col.cancelled,
		Rejected:      col.rejected,
		AchievedQPS:   float64(col.completed) / measured.Seconds(),
		SubmitLatency: summarize(col.submitLat),
		E2ELatency:    summarize(col.e2eLat),
		Shards:        shardBreakdown(beforeShards, afterShards, measured),
	}
	return rep, nil
}

// client is one closed-loop worker: submit, poll to terminal, repeat.
// A job counts in the report when it was submitted after the measured
// window opened.
func client(ctx context.Context, cfg Config, r *rng.Rand, solvers, instances *mix,
	tokens chan struct{}, opened *atomic.Pointer[time.Time], col *collector) {
	for {
		if ctx.Err() != nil {
			return
		}
		if tokens != nil {
			select {
			case <-tokens:
			case <-ctx.Done():
				return
			}
		}

		spec := map[string]any{
			"solver":   solvers.pick(r),
			"instance": instances.pick(r),
			"seed":     r.Uint64() | 1, // non-zero, so the service reseeds
		}
		if cfg.MaxEvaluations > 0 {
			spec["budget"] = map[string]any{"max_evaluations": cfg.MaxEvaluations}
		}
		body, _ := json.Marshal(spec)

		t0 := time.Now()
		from := opened.Load()
		measured := from != nil && !t0.Before(*from)
		view, status, err := postJob(ctx, cfg, body)
		submitLat := time.Since(t0)
		if err != nil {
			// Transport errors at shutdown are expected; anything else is
			// backoff-worthy but not fatal to the run.
			if ctx.Err() != nil {
				return
			}
			sleepCtx(ctx, 5*time.Millisecond)
			continue
		}
		switch {
		case status == http.StatusAccepted:
			if measured {
				col.mu.Lock()
				col.submitted++
				col.submitLat = append(col.submitLat, submitLat)
				col.mu.Unlock()
			}
		case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
			if measured {
				col.mu.Lock()
				col.rejected++
				col.mu.Unlock()
			}
			sleepCtx(ctx, cfg.PollInterval)
			continue
		default:
			// A 4xx here means the mix itself is invalid; surface it by
			// counting a failure so the report is visibly broken.
			if measured {
				col.mu.Lock()
				col.failed++
				col.mu.Unlock()
			}
			sleepCtx(ctx, 5*time.Millisecond)
			continue
		}

		// Poll the job to a terminal state. Polling continues briefly past
		// the run deadline so in-flight jobs drain rather than dangle.
		state := pollJob(ctx, cfg, view.ID)
		if measured {
			e2e := time.Since(t0)
			col.mu.Lock()
			switch state {
			case "done":
				col.completed++
				col.e2eLat = append(col.e2eLat, e2e)
			case "failed":
				col.failed++
			case "cancelled":
				col.cancelled++
			default: // lost at shutdown
			}
			col.mu.Unlock()
		}
	}
}

// postJob submits one job and decodes the response.
func postJob(ctx context.Context, cfg Config, body []byte) (jobView, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, cfg.BaseURL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return jobView{}, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := cfg.Client.Do(req)
	if err != nil {
		return jobView{}, 0, err
	}
	defer resp.Body.Close()
	var view jobView
	_ = json.NewDecoder(resp.Body).Decode(&view)
	return view, resp.StatusCode, nil
}

// pollJob polls until the job is terminal, returning its final state
// ("" when the run context died first and a short grace expired).
func pollJob(ctx context.Context, cfg Config, id string) string {
	// After the run deadline, give in-flight jobs a grace window on a
	// fresh context so the report counts them instead of dropping them.
	graceCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for {
		req, err := http.NewRequestWithContext(graceCtx, http.MethodGet, cfg.BaseURL+"/v1/jobs/"+id, nil)
		if err != nil {
			return ""
		}
		resp, err := cfg.Client.Do(req)
		if err != nil {
			return ""
		}
		var view jobView
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return ""
		}
		switch view.State {
		case "done", "failed", "cancelled":
			return view.State
		}
		select {
		case <-graceCtx.Done():
			return ""
		case <-time.After(cfg.PollInterval):
		}
	}
}

// sleepCtx sleeps or returns early when ctx dies.
func sleepCtx(ctx context.Context, d time.Duration) {
	select {
	case <-ctx.Done():
	case <-time.After(d):
	}
}
