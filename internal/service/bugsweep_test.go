package service

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"sync"
	"testing"
	"time"

	"gridsched/internal/etc"
	"gridsched/internal/solver"
)

// TestStatsZeroDurationJobMarshals is the regression test for the
// stats divisions: a job that retires with zero measured busy time
// (heuristics finish inside the clock's granularity) must yield zero —
// not ±Inf/NaN — rates, and the whole snapshot must survive
// encoding/json, which refuses non-finite floats.
func TestStatsZeroDurationJobMarshals(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	now := time.Now()
	svc.counters("minmin").fold(Job{
		State:       StateDone,
		StartedAt:   now,
		FinishedAt:  now, // zero-duration run
		Result:      &JobResult{Evaluations: 123},
		SubmittedAt: now,
	})
	// A retired-while-queued job contributes no busy sample at all:
	// ran stays 0 for its solver.
	svc.counters("maxmin").fold(Job{State: StateCancelled, Result: &JobResult{Evaluations: 7}})

	st := svc.Stats()
	if len(st.Solvers) != 2 {
		t.Fatalf("stats have %d solvers, want 2", len(st.Solvers))
	}
	for _, sv := range st.Solvers {
		if math.IsInf(sv.EvalsPerSecond, 0) || math.IsNaN(sv.EvalsPerSecond) {
			t.Fatalf("%s: EvalsPerSecond = %v, want finite", sv.Solver, sv.EvalsPerSecond)
		}
		if sv.EvalsPerSecond != 0 || sv.MeanLatency != 0 {
			t.Fatalf("%s: zero-busy counters produced rate %v / latency %v, want 0/0",
				sv.Solver, sv.EvalsPerSecond, sv.MeanLatency)
		}
	}
	if _, err := json.Marshal(st); err != nil {
		t.Fatalf("stats snapshot does not marshal: %v", err)
	}
}

func TestSafeRate(t *testing.T) {
	for _, tc := range []struct {
		n, sec, want float64
	}{
		{100, 0, 0},
		{100, -1, 0},
		{100, 2, 50},
		{0, 5, 0},
		{math.Inf(1), 1, 0},
		{math.NaN(), 1, 0},
	} {
		if got := safeRate(tc.n, tc.sec); got != tc.want {
			t.Errorf("safeRate(%v, %v) = %v, want %v", tc.n, tc.sec, got, tc.want)
		}
	}
	if got := meanLatency(time.Second, 0); got != 0 {
		t.Errorf("meanLatency(1s, 0) = %v, want 0", got)
	}
}

// TestStatsEndpointAfterHeuristicBurst drives the real path the bug
// report names: a burst of Min-min jobs (sub-microsecond solves)
// followed by GET /v1/stats must answer 200 with decodable JSON.
func TestStatsEndpointAfterHeuristicBurst(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 2, QueueSize: 64})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 16; i++ {
		j, err := svc.Submit(JobSpec{Solver: "minmin", Instance: "u_c_hihi.0@64x8"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Wait(ctx, j.ID); err != nil {
			t.Fatal(err)
		}
	}
	var body map[string]any
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/stats", "", &body); code != http.StatusOK {
		t.Fatalf("GET /v1/stats: status %d", code)
	}
	if _, ok := body["solvers"]; !ok {
		t.Fatalf("stats body missing solvers: %v", body)
	}
}

// TestSubmitShutdownRace audits the submit/drain window under -race:
// Submit goroutines hammer the server while Shutdown drains it. Every
// job Submit accepted must reach a terminal state and release its
// Server.Wait waiter — no accepted job may be stranded queued, and no
// send may hit the closed queue.
func TestSubmitShutdownRace(t *testing.T) {
	svc := New(Config{Workers: 2, QueueSize: 8})
	spec := JobSpec{Solver: "minmin", Instance: "u_c_hihi.0@64x8"}
	// Warm the instance cache so racing submits stay cheap.
	if _, err := svc.Submit(spec); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var accepted []string
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				j, err := svc.Submit(spec)
				switch err {
				case nil:
					mu.Lock()
					accepted = append(accepted, j.ID)
					mu.Unlock()
				case ErrClosed:
					return // drain reached this goroutine
				case ErrQueueFull:
					time.Sleep(time.Millisecond)
				default:
					t.Errorf("Submit: %v", err)
					return
				}
			}
		}()
	}

	time.Sleep(10 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	close(stop)
	wg.Wait()

	if _, err := svc.Submit(spec); err != ErrClosed {
		t.Fatalf("Submit after shutdown: %v, want ErrClosed", err)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, id := range accepted {
		j, err := svc.Wait(ctx, id)
		if err != nil {
			t.Fatalf("Wait(%s): %v", id, err)
		}
		if !j.State.Terminal() {
			t.Fatalf("accepted job %s stranded in state %s after Shutdown", id, j.State)
		}
	}
}

// TestForcedShutdownCancelsQueuedJobs pins the drain fix: when a
// forced shutdown cancels the job contexts, still-queued jobs must
// retire as cancelled — not run against a dead context (heuristics
// ignore it) and not be misfiled as failed when the solver surfaces
// ctx.Err().
func TestForcedShutdownCancelsQueuedJobs(t *testing.T) {
	svc := New(Config{Workers: 1, QueueSize: 16})
	// Occupy the lone worker so everything else stays queued.
	blocker, err := svc.Submit(JobSpec{Solver: "test-block", Instance: "u_c_hihi.0@64x8"})
	if err != nil {
		t.Fatal(err)
	}
	var queued []string
	for i := 0; i < 4; i++ {
		j, err := svc.Submit(JobSpec{Solver: "minmin", Instance: "u_c_hihi.0@64x8"})
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, j.ID)
	}

	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, id := range queued {
		j, err := svc.Wait(ctx, id)
		if err != nil {
			t.Fatalf("Wait(%s): %v", id, err)
		}
		if j.State != StateCancelled {
			t.Fatalf("queued job %s retired as %s (error %q), want cancelled", id, j.State, j.Error)
		}
	}
	// The blocker was mid-solve: cancelled, not failed.
	j, err := svc.Wait(ctx, blocker.ID)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StateCancelled {
		t.Fatalf("in-flight job retired as %s, want cancelled", j.State)
	}
}

// TestDequeueAfterBaseCancelRetiresCancelled pins the dequeue check
// against the forced-shutdown race: Close cancels the server's base
// context, and Go cancels the job contexts under it one at a time, so a
// worker can dequeue a job whose own context is still live. The job
// here is given a context outside the base one, which holds that window
// open; execute must still retire it as cancelled without running it.
func TestDequeueAfterBaseCancelRetiresCancelled(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	inst, err := etc.GenerateByName("u_c_hihi.0@64x8")
	if err != nil {
		t.Fatal(err)
	}
	sv, err := solver.Lookup("minmin")
	if err != nil {
		t.Fatal(err)
	}
	j := newJob(JobSpec{Solver: "minmin", Instance: inst.Name}, sv, inst, solver.Budget{}, context.Background(), &svc.gauges)
	j.id = "j-window"
	svc.gauges.queued.Add(1)
	svc.stop()
	if j.ctx.Err() != nil {
		t.Fatal("the job's own context is cancelled; the test no longer holds the race window open")
	}
	svc.execute(j)
	snap := j.snapshot()
	if snap.State != StateCancelled || !snap.StartedAt.IsZero() {
		t.Fatalf("job dequeued after the base context was cancelled retired as %s (started %v), want cancelled without running",
			snap.State, !snap.StartedAt.IsZero())
	}
	if q := svc.gauges.queued.Load(); q != 0 {
		t.Fatalf("queued gauge %d after retirement, want 0", q)
	}
}

// TestPortfolioJobPerConstituent runs a portfolio job end-to-end over
// HTTP and checks the per_constituent breakdown: one entry per
// constituent, evaluations summing to the job's counter, within the
// submitted budget.
func TestPortfolioJobPerConstituent(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	var sub jobJSON
	code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
		`{"solver":"portfolio:ga+tabu+h2ll","instance":"u_c_hihi.0@96x8","budget":{"max_evaluations":3000},"seed":7}`, &sub)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	j := pollState(t, ts.URL, sub.ID, 30*time.Second, func(j jobJSON) bool { return JobState(j.State).Terminal() })
	if j.State != StateDone {
		t.Fatalf("portfolio job ended %s (error %q)", j.State, j.Error)
	}
	if j.Result == nil || len(j.Result.PerConstituent) != 3 {
		t.Fatalf("per_constituent missing or wrong length: %+v", j.Result)
	}
	var sum int64
	names := map[string]bool{}
	for _, c := range j.Result.PerConstituent {
		sum += c.Evaluations
		names[c.Solver] = true
		if c.Busy == "" || c.Rounds < 1 {
			t.Fatalf("constituent %+v incomplete", c)
		}
	}
	if sum != j.Result.Evaluations {
		t.Fatalf("per_constituent evaluations sum %d != job evaluations %d", sum, j.Result.Evaluations)
	}
	if j.Result.Evaluations > 3000+64 {
		t.Fatalf("portfolio job spent %d evaluations against a 3000 budget", j.Result.Evaluations)
	}
	for _, want := range []string{"pa-cga", "tabu", "h2ll"} {
		if !names[want] {
			t.Fatalf("per_constituent missing %s: %v", want, names)
		}
	}

	// A single-solver job carries no per_constituent array.
	var single jobJSON
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
		`{"solver":"minmin","instance":"u_c_hihi.0@96x8"}`, &single); code != http.StatusAccepted {
		t.Fatalf("submit single: status %d", code)
	}
	j = pollState(t, ts.URL, single.ID, 10*time.Second, func(j jobJSON) bool { return JobState(j.State).Terminal() })
	if j.Result != nil && len(j.Result.PerConstituent) != 0 {
		t.Fatalf("single-solver job grew per_constituent: %+v", j.Result.PerConstituent)
	}

	// Bad portfolio specs fail fast at submit, never as failed jobs.
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
		`{"solver":"portfolio:nope","instance":"u_c_hihi.0@96x8","budget":{"max_evaluations":100}}`, nil); code != http.StatusBadRequest {
		t.Fatalf("bad portfolio spec: status %d, want 400", code)
	}
}
