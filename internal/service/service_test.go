package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gridsched/internal/etc"
	"gridsched/internal/rng"
	"gridsched/internal/schedule"
	"gridsched/internal/solver"
)

// blockingSolver runs until its context is cancelled, then returns a
// valid (random) schedule. Tests use it to hold a worker or a queue
// slot deterministically.
type blockingSolver struct{}

func (blockingSolver) Name() string     { return "test-block" }
func (blockingSolver) Describe() string { return "test solver that blocks until cancelled" }
func (blockingSolver) Solve(ctx context.Context, inst *etc.Instance, _ solver.Budget) (*solver.Result, error) {
	<-ctx.Done()
	best := schedule.NewRandom(inst, rng.New(1))
	return &solver.Result{Best: best, BestFitness: best.Makespan()}, nil
}

func init() { solver.Register(blockingSolver{}) }

// newTestServer returns a started Server plus its httptest frontend,
// both torn down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	svc := New(cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := svc.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return svc, ts
}

// doJSON performs a request and decodes the JSON response body into out
// (when non-nil), returning the status code.
func doJSON(t *testing.T, method, url string, body string, out any) int {
	t.Helper()
	var rd *bytes.Reader
	if body != "" {
		rd = bytes.NewReader([]byte(body))
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// pollState polls GET /v1/jobs/{id} until the predicate holds or the
// timeout expires, returning the last snapshot.
func pollState(t *testing.T, base, id string, timeout time.Duration, pred func(jobJSON) bool) jobJSON {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var j jobJSON
	for {
		if code := doJSON(t, http.MethodGet, base+"/v1/jobs/"+id, "", &j); code != http.StatusOK {
			t.Fatalf("GET job %s: status %d", id, code)
		}
		if pred(j) {
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not reach expected state in %v (last: %s)", id, timeout, j.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestEndToEndHTTP submits a job over HTTP, polls it to completion and
// reads the result, the solver listing and the stats — the service's
// whole happy path through the real mux.
func TestEndToEndHTTP(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 2, QueueSize: 8})

	var sub jobJSON
	code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
		`{"solver":"minmin","instance":"u_c_hihi.0"}`, &sub)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	if sub.ID == "" || sub.Solver != "minmin" || sub.Instance != "u_c_hihi.0" {
		t.Fatalf("submit echo wrong: %+v", sub)
	}

	j := pollState(t, ts.URL, sub.ID, 10*time.Second, func(j jobJSON) bool { return JobState(j.State).Terminal() })
	if j.State != StateDone {
		t.Fatalf("state = %s (error %q), want done", j.State, j.Error)
	}
	if j.Result == nil || j.Result.Makespan <= 0 {
		t.Fatalf("missing or empty result: %+v", j.Result)
	}
	if j.Result.Assignment != nil {
		t.Fatalf("assignment included without ?include=assignment")
	}

	// The assignment rides only on request, and has one entry per task.
	var withAssign jobJSON
	doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+sub.ID+"?include=assignment", "", &withAssign)
	if got := len(withAssign.Result.Assignment); got != j.Tasks {
		t.Fatalf("assignment has %d entries, want %d", got, j.Tasks)
	}

	// Solver listing includes the whole registered family.
	var solvers struct {
		Solvers []struct{ Name, Description string } `json:"solvers"`
	}
	doJSON(t, http.MethodGet, ts.URL+"/v1/solvers", "", &solvers)
	names := map[string]bool{}
	for _, s := range solvers.Solvers {
		names[s.Name] = true
	}
	for _, want := range []string{"pa-cga", "minmin", "tabu", "struggle"} {
		if !names[want] {
			t.Errorf("solver listing missing %q", want)
		}
	}

	// Stats reflect the finished job. The terminal state is published
	// before the retirement is counted, so the poll above cannot order
	// the read; Wait can: once it returns, the job is in every counter.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := svc.Wait(ctx, sub.ID); err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Shards []struct {
			Finished int64 `json:"finished"`
		} `json:"shards"`
		Solvers []struct {
			Solver string `json:"solver"`
			Done   int64  `json:"done"`
		} `json:"solvers"`
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/stats", "", &stats); code != http.StatusOK {
		t.Fatalf("GET /v1/stats: status %d", code)
	}
	if len(stats.Solvers) != 1 || stats.Solvers[0].Solver != "minmin" || stats.Solvers[0].Done != 1 {
		t.Errorf("stats solvers = %+v, want just minmin done=1", stats.Solvers)
	}
	var finished int64
	for _, sh := range stats.Shards {
		finished += sh.Finished
	}
	if finished != 1 {
		t.Errorf("shards finished %d jobs in total, want 1", finished)
	}
	if len(stats.Shards) == 0 {
		t.Errorf("stats missing per-shard breakdown")
	}

	// Health is OK while serving.
	if code := doJSON(t, http.MethodGet, ts.URL+"/healthz", "", nil); code != http.StatusOK {
		t.Errorf("healthz: status %d", code)
	}
}

// TestConcurrentJobs pushes many jobs through a small pool and checks
// they all complete and that the instance cache deduplicates the
// benchmark matrix generation. Concurrent submits of one name may
// join the in-flight generation instead of hitting the cached entry,
// so hits and joins together account for every request but the one
// miss.
func TestConcurrentJobs(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 4, QueueSize: 32})

	const n = 12
	ids := make([]string, n)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var sub jobJSON
			body := fmt.Sprintf(`{"solver":"minmin","instance":"u_i_hihi.0","seed":%d}`, i+1)
			if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", body, &sub); code != http.StatusAccepted {
				errs <- fmt.Errorf("submit %d: status %d", i, code)
				return
			}
			ids[i] = sub.ID
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for _, id := range ids {
		j := pollState(t, ts.URL, id, 20*time.Second, func(j jobJSON) bool { return JobState(j.State).Terminal() })
		if j.State != StateDone {
			t.Fatalf("job %s: state %s (error %q)", id, j.State, j.Error)
		}
	}

	st := svc.Stats()
	if st.CacheMisses != 1 || st.CacheHits+st.CacheJoins != n-1 {
		t.Errorf("cache hits+joins/misses = %d+%d/%d, want %d/1", st.CacheHits, st.CacheJoins, st.CacheMisses, n-1)
	}
}

// TestCancelMidSolve runs a real solver (PA-CGA) under a long budget
// and cancels it over HTTP mid-run: the DELETE must stop the solver
// through its budget context long before the budget would.
func TestCancelMidSolve(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueSize: 4})

	var sub jobJSON
	code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
		`{"solver":"pa-cga","instance":"u_c_hihi.0","budget":{"max_duration":"120s"}}`, &sub)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}

	pollState(t, ts.URL, sub.ID, 10*time.Second, func(j jobJSON) bool { return j.State == StateRunning })

	start := time.Now()
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+sub.ID, "", nil); code != http.StatusOK {
		t.Fatalf("cancel: status %d", code)
	}
	j := pollState(t, ts.URL, sub.ID, 10*time.Second, func(j jobJSON) bool { return JobState(j.State).Terminal() })
	if j.State != StateCancelled {
		t.Fatalf("state after cancel = %s, want cancelled", j.State)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v; the budget context is not stopping the solver", elapsed)
	}
	// A cancelled PA-CGA still reports its best-so-far schedule.
	if j.Result == nil || j.Result.Makespan <= 0 {
		t.Errorf("cancelled run lost its partial result: %+v", j.Result)
	}
}

// TestCancelQueued cancels a job that never started: it must go
// straight to cancelled and the worker must skip it.
func TestCancelQueued(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1, QueueSize: 4})

	// Occupy the only worker.
	blockJob, err := svc.Submit(JobSpec{Solver: "test-block", Instance: "u_c_hihi.0"})
	if err != nil {
		t.Fatal(err)
	}
	pollState(t, ts.URL, blockJob.ID, 5*time.Second, func(j jobJSON) bool { return j.State == StateRunning })

	queued, err := svc.Submit(JobSpec{Solver: "minmin", Instance: "u_c_hihi.0"})
	if err != nil {
		t.Fatal(err)
	}
	var cancelled jobJSON
	doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, "", &cancelled)
	if cancelled.State != StateCancelled {
		t.Fatalf("queued job state after cancel = %s, want cancelled", cancelled.State)
	}
	if cancelled.StartedAt != nil {
		t.Errorf("cancelled-while-queued job has a start time")
	}
}

// TestQueueFullBackpressure fills the one-slot queue behind a blocked
// worker and checks that the next submit gets 429 over HTTP (and
// ErrQueueFull from Go), then that the queue drains once unblocked.
func TestQueueFullBackpressure(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1, QueueSize: 1})

	// First job occupies the worker...
	running, err := svc.Submit(JobSpec{Solver: "test-block", Instance: "u_c_hihi.0"})
	if err != nil {
		t.Fatal(err)
	}
	pollState(t, ts.URL, running.ID, 5*time.Second, func(j jobJSON) bool { return j.State == StateRunning })

	// ...the second fills the queue...
	queued, err := svc.Submit(JobSpec{Solver: "minmin", Instance: "u_c_hihi.0"})
	if err != nil {
		t.Fatal(err)
	}

	// ...and the third must be rejected with backpressure on both APIs.
	if _, err := svc.Submit(JobSpec{Solver: "minmin", Instance: "u_c_hihi.0"}); err != ErrQueueFull {
		t.Fatalf("Submit on full queue: err = %v, want ErrQueueFull", err)
	}
	var rejected struct {
		Error string `json:"error"`
	}
	code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
		`{"solver":"minmin","instance":"u_c_hihi.0"}`, &rejected)
	if code != http.StatusTooManyRequests {
		t.Fatalf("submit on full queue: status %d, want 429", code)
	}
	if !strings.Contains(rejected.Error, "queue full") {
		t.Errorf("429 body = %q, want queue-full error", rejected.Error)
	}

	// Unblock the worker; both held jobs must finish.
	doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+running.ID, "", nil)
	pollState(t, ts.URL, queued.ID, 10*time.Second, func(j jobJSON) bool { return j.State == StateDone })
}

// unknownIDs are job IDs no server hands out: an unissued sequence
// number and malformed strings a client could send. Every by-ID
// operation must answer them with ErrNotFound (404 over HTTP).
var unknownIDs = []string{"j99999999", "", "j", "x0-00000001", "j-1-00000001", "nope"}

// TestSubmitValidation exercises the fail-fast paths: bad solver, bad
// instance, conflicting and missing instance specs.
func TestSubmitValidation(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1, QueueSize: 4})

	cases := []JobSpec{
		{Solver: "no-such-solver", Instance: "u_c_hihi.0"},
		{Solver: "minmin", Instance: "not_a_class"},
		{Solver: "minmin"},
		{Solver: "minmin", Instance: "u_c_hihi.0", Matrix: &MatrixSpec{Tasks: 1, Machines: 1, ETC: []float64{1}}},
		{Solver: "minmin", Matrix: &MatrixSpec{Tasks: 2, Machines: 2, ETC: []float64{1}}}, // wrong length
	}
	for i, spec := range cases {
		if _, err := svc.Submit(spec); err == nil {
			t.Errorf("case %d: Submit accepted invalid spec %+v", i, spec)
		}
	}

	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", `{"solver":"nope","instance":"u_c_hihi.0"}`, nil); code != http.StatusBadRequest {
		t.Errorf("unknown solver over HTTP: status %d, want 400", code)
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", `{"solver":"minmin","instance":"u_c_hihi.0","budget":{"max_duration":"xyz"}}`, nil); code != http.StatusBadRequest {
		t.Errorf("bad duration over HTTP: status %d, want 400", code)
	}
	for _, id := range unknownIDs {
		if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+id, "", nil); code != http.StatusNotFound {
			t.Errorf("GET unknown job %q: status %d, want 404", id, code)
		}
		if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+id, "", nil); code != http.StatusNotFound {
			t.Errorf("DELETE unknown job %q: status %d, want 404", id, code)
		}
	}

	// An inline matrix solves end to end.
	var sub jobJSON
	code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
		`{"solver":"minmin","matrix":{"name":"tiny","tasks":2,"machines":2,"etc":[1,2,2,1]}}`, &sub)
	if code != http.StatusAccepted {
		t.Fatalf("inline matrix submit: status %d", code)
	}
	j := pollState(t, ts.URL, sub.ID, 5*time.Second, func(j jobJSON) bool { return JobState(j.State).Terminal() })
	if j.State != StateDone || j.Result.Makespan != 1 {
		t.Fatalf("inline matrix job: state %s makespan %v, want done/1", j.State, j.Result)
	}
}

// TestResultEviction checks TTL-based retention: a finished job past
// its TTL disappears from the manager and counts as evicted.
func TestResultEviction(t *testing.T) {
	svc, _ := newTestServer(t, Config{Workers: 1, QueueSize: 4, ResultTTL: time.Hour})

	job, err := svc.Submit(JobSpec{Solver: "minmin", Instance: "u_c_hihi.0"})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		j, err := svc.Job(job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if j.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not finish")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Not yet expired: the janitor must keep it.
	svc.evictExpired(time.Now())
	if _, err := svc.Job(job.ID); err != nil {
		t.Fatalf("job evicted before its TTL: %v", err)
	}
	// Pretend the TTL passed.
	svc.evictExpired(time.Now().Add(2 * time.Hour))
	if _, err := svc.Job(job.ID); err != ErrNotFound {
		t.Fatalf("expired job still retrievable (err = %v)", err)
	}
	if st := svc.Stats(); st.Evicted != 1 || st.Retained != 0 {
		t.Errorf("stats after eviction: evicted=%d retained=%d, want 1/0", st.Evicted, st.Retained)
	}
}

// TestGracefulShutdown covers the drain contract: queued work still
// executes, later submits are refused, and no goroutines leak.
func TestGracefulShutdown(t *testing.T) {
	before := runtime.NumGoroutine()

	svc := New(Config{Workers: 2, QueueSize: 8})
	ids := make([]string, 4)
	for i := range ids {
		j, err := svc.Submit(JobSpec{Solver: "minmin", Instance: "u_c_hihi.0"})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = j.ID
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// Every queued job ran to completion during the drain.
	for _, id := range ids {
		j, err := svc.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if j.State != StateDone {
			t.Errorf("job %s after drain: state %s, want done", id, j.State)
		}
	}
	// Submits after shutdown are refused.
	if _, err := svc.Submit(JobSpec{Solver: "minmin", Instance: "u_c_hihi.0"}); err != ErrClosed {
		t.Errorf("Submit after shutdown: err = %v, want ErrClosed", err)
	}
	// Shutdown is idempotent.
	if err := svc.Shutdown(context.Background()); err != nil {
		t.Errorf("second Shutdown: %v", err)
	}

	waitNoLeakedGoroutines(t, before)
}

// TestDrainingVisibleOverHTTP checks that BeginDrain flips the
// client-visible state before any waiting happens: /healthz reports
// 503 and submits are refused, as the daemon relies on during its
// listener drain window.
func TestDrainingVisibleOverHTTP(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1, QueueSize: 4})

	if code := doJSON(t, http.MethodGet, ts.URL+"/healthz", "", nil); code != http.StatusOK {
		t.Fatalf("healthz before drain: status %d", code)
	}
	svc.BeginDrain()
	if code := doJSON(t, http.MethodGet, ts.URL+"/healthz", "", nil); code != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: status %d, want 503", code)
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
		`{"solver":"minmin","instance":"u_c_hihi.0"}`, nil); code != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: status %d, want 503", code)
	}
	if err := svc.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown after BeginDrain: %v", err)
	}
}

// TestShutdownCancelsInFlight checks the deadline path: a shutdown
// whose context expires cancels running jobs instead of waiting
// forever.
func TestShutdownCancelsInFlight(t *testing.T) {
	before := runtime.NumGoroutine()

	svc := New(Config{Workers: 1, QueueSize: 4})
	j, err := svc.Submit(JobSpec{Solver: "test-block", Instance: "u_c_hihi.0"})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap, err := svc.Job(j.ID)
		if err != nil {
			t.Fatal(err)
		}
		if snap.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("blocking job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := svc.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown err = %v, want DeadlineExceeded", err)
	}
	snap, err := svc.Job(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != StateCancelled {
		t.Errorf("in-flight job after forced drain: state %s, want cancelled", snap.State)
	}

	waitNoLeakedGoroutines(t, before)
}

// waitNoLeakedGoroutines gives the runtime a moment to retire workers
// and then asserts the goroutine count returned to its baseline.
func waitNoLeakedGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > %d\n%s", runtime.NumGoroutine(), before, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWait covers the synchronous companion to Job: a finished job is
// returned with its terminal snapshot, a cancelled-while-queued job
// unblocks waiters, an expired context surrenders, and unknown IDs are
// rejected.
func TestWait(t *testing.T) {
	svc := New(Config{Workers: 1, QueueSize: 8})
	defer svc.Close()

	j, err := svc.Submit(JobSpec{Solver: "minmin", Instance: "u_c_hihi.0"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got, err := svc.Wait(ctx, j.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if got.State != StateDone || got.Result == nil {
		t.Fatalf("Wait returned state %q, result %v", got.State, got.Result)
	}
	// Waiting on an already-terminal job returns immediately.
	if again, err := svc.Wait(ctx, j.ID); err != nil || again.State != StateDone {
		t.Fatalf("re-Wait: %v, %v", again.State, err)
	}

	for _, id := range unknownIDs {
		if _, err := svc.Wait(ctx, id); err != ErrNotFound {
			t.Fatalf("Wait on unknown id %q: %v, want ErrNotFound", id, err)
		}
		if _, err := svc.Job(id); err != ErrNotFound {
			t.Fatalf("Job on unknown id %q: %v, want ErrNotFound", id, err)
		}
		if _, err := svc.Cancel(id); err != ErrNotFound {
			t.Fatalf("Cancel on unknown id %q: %v, want ErrNotFound", id, err)
		}
	}

	// Occupy the single worker, queue a victim behind it, and cancel the
	// victim while queued: Wait must unblock with the cancelled snapshot.
	blocker, err := svc.Submit(JobSpec{Solver: "test-block", Instance: "u_c_hihi.0"})
	if err != nil {
		t.Fatal(err)
	}
	victim, err := svc.Submit(JobSpec{Solver: "minmin", Instance: "u_c_hihi.0"})
	if err != nil {
		t.Fatal(err)
	}
	waitErr := make(chan error, 1)
	var waited Job
	go func() {
		var werr error
		waited, werr = svc.Wait(ctx, victim.ID)
		waitErr <- werr
	}()
	if _, err := svc.Cancel(victim.ID); err != nil {
		t.Fatal(err)
	}
	if err := <-waitErr; err != nil {
		t.Fatalf("Wait on cancelled job: %v", err)
	}
	if waited.State != StateCancelled {
		t.Fatalf("cancelled-while-queued job reported %q", waited.State)
	}
	if _, err := svc.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}

	// A context that fires first wins over the job.
	stuck, err := svc.Submit(JobSpec{Solver: "test-block", Instance: "u_c_hihi.0"})
	if err != nil {
		t.Fatal(err)
	}
	short, shortCancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer shortCancel()
	if _, err := svc.Wait(short, stuck.ID); err != context.DeadlineExceeded {
		t.Fatalf("Wait under expired context: %v", err)
	}
}

// TestMatrixSizeCap covers the server-side DoS guard: oversized
// instances — sized benchmark names or inline matrices — are rejected
// at Submit, before any generation or caching happens.
func TestMatrixSizeCap(t *testing.T) {
	svc := New(Config{Workers: 1, MaxMatrixEntries: 10000})
	defer svc.Close()

	// Within the cap: a sized name resolves and runs.
	if _, err := svc.Submit(JobSpec{Solver: "minmin", Instance: "u_c_hihi.0@100x10"}); err != nil {
		t.Fatalf("in-cap sized instance rejected: %v", err)
	}
	// Beyond the cap: rejected at submit.
	if _, err := svc.Submit(JobSpec{Solver: "minmin", Instance: "u_c_hihi.0@101x100"}); err == nil {
		t.Fatal("oversized sized instance accepted")
	}
	// The plain benchmark name (512×16 = 8192 entries) stays in cap.
	if _, err := svc.Submit(JobSpec{Solver: "minmin", Instance: "u_c_hihi.0"}); err != nil {
		t.Fatalf("benchmark instance rejected: %v", err)
	}
	// Inline matrices honor the same cap.
	big := &MatrixSpec{Tasks: 101, Machines: 100, ETC: make([]float64, 101*100)}
	if _, err := svc.Submit(JobSpec{Solver: "minmin", Matrix: big}); err == nil {
		t.Fatal("oversized inline matrix accepted")
	}

	// A negative cap disables the guard (trusted embedders).
	open := New(Config{Workers: 1, MaxMatrixEntries: -1})
	defer open.Close()
	if _, err := open.Submit(JobSpec{Solver: "minmin", Instance: "u_c_hihi.0@200x100"}); err != nil {
		t.Fatalf("uncapped server rejected instance: %v", err)
	}
}

// TestSubmitBodyLimit covers the HTTP-layer guard: a request body past
// maxSubmitBody is refused with 413 before it is buffered into the
// decoder.
func TestSubmitBodyLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	body := `{"solver":"minmin","instance":"` + strings.Repeat("a", maxSubmitBody) + `"}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body got %d, want 413", resp.StatusCode)
	}
}

// TestJobReportsEffectiveBudget pins the budget a finished job reports:
// the bounds the solver's engine actually enforced, including the
// server's MaxDuration clamp — never a misleading "unbounded" for a run
// that was in fact time-bounded.
func TestJobReportsEffectiveBudget(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1, MaxDuration: time.Minute})

	// The spec asks only for an evaluation bound; the server clamps in
	// its one-minute duration cap on top.
	j, err := svc.Submit(JobSpec{
		Solver:   "tabu",
		Instance: "u_c_hihi.0",
		Budget:   solver.Budget{MaxEvaluations: 200},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	done, err := svc.Wait(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateDone || done.Result == nil {
		t.Fatalf("job did not finish cleanly: %+v", done)
	}
	eff := done.Result.EffectiveBudget
	if eff.MaxEvaluations != 200 {
		t.Fatalf("EffectiveBudget.MaxEvaluations = %d, want 200", eff.MaxEvaluations)
	}
	if eff.MaxDuration <= 0 || eff.MaxDuration > time.Minute {
		t.Fatalf("EffectiveBudget.MaxDuration = %v, want the clamped (0, 1m] bound", eff.MaxDuration)
	}
	if eff.String() == "unbounded" {
		t.Fatal("effective budget renders as unbounded for a bounded run")
	}

	// And over the wire: the job JSON carries effective_budget.
	var got jobJSON
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+j.ID, "", &got); code != http.StatusOK {
		t.Fatalf("get: status %d", code)
	}
	if got.Result == nil || got.Result.EffectiveBudget == nil {
		t.Fatalf("job JSON missing effective_budget: %+v", got.Result)
	}
	if got.Result.EffectiveBudget.MaxEvaluations != 200 || got.Result.EffectiveBudget.MaxDuration == "" {
		t.Fatalf("effective_budget JSON = %+v, want evals 200 and a duration", got.Result.EffectiveBudget)
	}
}
