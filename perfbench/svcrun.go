package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"gridsched/internal/rng"
	"gridsched/internal/service"
)

// call issues one request and, when out is non-nil, decodes the JSON
// response. It returns the response body's size, or the problem when
// the request failed or returned another status than want.
func call(ctx context.Context, c *http.Client, method, url string, body []byte, want int, out any) (int, *problem) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		p := opFail("%s %s: %v", method, url, err)
		return 0, &p
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		p := opFail("%s %s: %v", method, url, err)
		return 0, &p
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		p := opFail("%s %s: reading body: %v", method, url, err)
		return 0, &p
	}
	if resp.StatusCode != want {
		p := opFail("%s %s: HTTP %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
		return len(data), &p
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			p := checkFail("%s %s: decoding response: %v", method, url, err)
			return len(data), &p
		}
	}
	return len(data), nil
}

// readResult holds the reads made beside the open loop's writes.
type readResult struct {
	statsMs, metricsMs []float64
	metricsBytes       []float64
}

// readLoop alternates GET /v1/stats and GET /metrics every period until
// stop closes.
func (h *svcHarness) readLoop(ctx context.Context, c *http.Client, stop <-chan struct{}, period time.Duration, t *tally) readResult {
	var rr readResult
	tick := time.NewTicker(period)
	defer tick.Stop()
	for i := 0; ; i++ {
		select {
		case <-stop:
			return rr
		case <-ctx.Done():
			return rr
		case <-tick.C:
		}
		path := "/v1/stats"
		if i%2 == 1 {
			path = "/metrics"
		}
		t0 := time.Now()
		n, p := call(ctx, c, http.MethodGet, h.ts.URL+path, nil, http.StatusOK, nil)
		d := ms(time.Since(t0))
		if p != nil {
			t.op(*p)
			continue
		}
		t.op()
		if i%2 == 1 {
			rr.metricsMs = append(rr.metricsMs, d)
			rr.metricsBytes = append(rr.metricsBytes, float64(n))
		} else {
			rr.statsMs = append(rr.statsMs, d)
		}
	}
}

// svcResult aggregates a service phase.
type svcResult struct {
	jobMs      []float64 // open loop: scheduled send → result decoded
	lateMs     []float64 // open loop: actual send − scheduled send
	samples    []jobSample
	reads      readResult
	closedJobs int
	// closedRates, closedCPURates and closedRefRates are the closed
	// loop's jobs per wall second, per CPU second and per reference
	// second (ref.go) in each of its chunks, and refRates the
	// reference's rate in each chunk.
	closedRates    []float64
	closedCPURates []float64
	closedRefRates []float64
	refRates       []float64
	stats          service.Stats
}

// Open-loop percentiles are taken per window of consecutive arrivals
// and reported as the median over windows, so one disturbed stretch
// does not move them. A window holds at least windowJobs jobs, enough
// for ten samples beyond p99; there are at most maxWindows.
const (
	windowJobs = 1000
	maxWindows = 9
	// closedChunkJobs is the size of the chunks the closed loop's job
	// count runs in; its rates are medians over chunks. A chunk runs in
	// parts of closedPartJobs, each followed by a reference chunk, and its
	// CPU time is the sum of its parts'.
	closedChunkJobs = 1000
	closedPartJobs  = 100
)

// jobPercentile is the median over windows of the p-th percentile of
// open-loop job latency. It is an error when a window has fewer than
// ten samples beyond the percentile.
func (s svcResult) jobPercentile(p float64) (float64, error) {
	n := len(s.jobMs)
	k := max(1, min(maxWindows, n/windowJobs))
	var per []float64
	for w := 0; w < k; w++ {
		win := s.jobMs[w*n/k : (w+1)*n/k]
		if b := beyond(len(win), p); b < 10 {
			return 0, fmt.Errorf("p%g of a window of %d open-loop jobs has %d samples beyond it, want >= 10", p, len(win), b)
		}
		per = append(per, percentile(sorted(win), p))
	}
	return median(per), nil
}

func (s svcResult) closedJobsPerSecond() float64 { return median(s.closedRates) }

// closedJobsPerCPUSecond is the median chunk's jobs per CPU second of
// the whole process, client included: the capacity one CPU gives, which
// host steal does not move.
func (s svcResult) closedJobsPerCPUSecond() float64 { return median(s.closedCPURates) }

// closedJobsPerRefSecond is the same capacity per reference second,
// which the co-tenants' load does not move either.
func (s svcResult) closedJobsPerRefSecond() float64 { return median(s.closedRefRates) }

// run drives one service phase: an untimed closed-loop warm-up, the
// open loop at openRate with a reader beside it, then the closed loop
// over a fixed job count, with reference chunks spread through it.
// Connections never exceed threads: the open
// loop's writers and its reader share one pool of that size.
func (h *svcHarness) run(ctx context.Context, r *rng.Rand, openSeconds float64, closedJobs int, tr *tracer, t *tally) (svcResult, error) {
	var res svcResult
	closedClient := newClient(h.threads)
	defer closedClient.CloseIdleConnections()
	warm := drawJobs(r.Split(0), h.in, warmupJobs)
	closedLoop(ctx, h.threads, len(warm), func(i int) {
		_, probs := h.doJob(ctx, closedClient, warm[i], time.Now(), nil)
		t.op(probs...)
	})
	closedClient.CloseIdleConnections()

	sched := arrivals(r.Split(1), openRate, openSeconds)
	jobs := drawJobs(r.Split(2), h.in, len(sched))
	// Garbage left by earlier phases is collected before timing starts.
	runtime.GC()
	open := newClient(h.threads)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		res.reads = h.readLoop(ctx, open, stop, readEvery, t)
	}()
	res.samples = make([]jobSample, len(jobs))
	lat, late := openLoop(ctx, sched, maxInFlight, func(i int, due time.Time) {
		s, probs := h.doJob(ctx, open, jobs[i], due, tr)
		t.op(probs...)
		res.samples[i] = s
	})
	close(stop)
	wg.Wait()
	open.CloseIdleConnections()
	res.samples = res.samples[:len(lat)]
	for i := range lat {
		res.jobMs = append(res.jobMs, ms(lat[i]))
		res.lateMs = append(res.lateMs, ms(late[i]))
	}

	closed := drawJobs(r.Split(3), h.in, closedJobs)
	res.closedJobs = len(closed)
	null := newNullRef(h.threads, h.in.bodies[h.in.storeNames[0]])
	defer null.close()
	runtime.GC()
	ref := null.meter(ctx, t)
	chunks := max(1, len(closed)/closedChunkJobs)
	for c := 0; c < chunks; c++ {
		chunk := closed[c*len(closed)/chunks : (c+1)*len(closed)/chunks]
		var cpu, elapsed time.Duration
		for p := 0; p < len(chunk); p += closedPartJobs {
			part := chunk[p:min(p+closedPartJobs, len(chunk))]
			cpu0 := cpuTime()
			elapsed += closedLoop(ctx, h.threads, len(part), func(i int) {
				_, probs := h.doJob(ctx, closedClient, part[i], time.Now(), nil)
				t.op(probs...)
			})
			cpu += cpuTime() - cpu0
			ref.sample()
		}
		perCPU := float64(len(chunk)) / cpu.Seconds()
		res.closedRates = append(res.closedRates, float64(len(chunk))/elapsed.Seconds())
		res.closedCPURates = append(res.closedCPURates, perCPU)
		res.closedRefRates = append(res.closedRefRates, ref.perRefSecond(perCPU, ref.window()))
	}
	res.refRates = ref.rates
	res.stats = h.srv.Stats()
	return res, ctx.Err()
}

// probeSubmitHandler times Handler().ServeHTTP on submits written into
// a recorder: the JSON codec and Submit with no socket. Each job is
// waited for before the next submit, so the queue stays empty.
func (h *svcHarness) probeSubmitHandler(ctx context.Context, t *tally) (float64, error) {
	const n = 300
	body := h.in.bodies[h.in.storeNames[0]]
	var total time.Duration
	for i := 0; i < n; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.handler.ServeHTTP(rec, req)
		total += time.Since(t0)
		var acc struct {
			ID string `json:"id"`
		}
		if rec.Code != http.StatusAccepted {
			t.op(opFail("handler submit: HTTP %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes())))
			continue
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &acc); err != nil {
			t.op(checkFail("handler submit: decoding response: %v", err))
			continue
		}
		job, err := h.srv.Wait(ctx, acc.ID)
		if err != nil {
			return 0, err
		}
		if job.State != service.StateDone {
			t.op(opFail("handler job %s ended %s: %s", job.ID, job.State, job.Error))
			continue
		}
		t.op()
	}
	return us(total) / n, nil
}

// probeStoreGet times instdb Store.Get over the stored names.
func (h *svcHarness) probeStoreGet() float64 {
	n := 0
	t0 := time.Now()
	for n == 0 || time.Since(t0) < probeTime {
		for _, name := range h.in.storeNames {
			if in, ok := h.store.Get(name); ok {
				probeSink += float64(in.T)
			}
		}
		n += len(h.in.storeNames)
	}
	return ns(time.Since(t0)) / float64(n)
}
