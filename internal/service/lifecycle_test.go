package service

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"gridsched/internal/etc"
	"gridsched/internal/solver"
)

// panicSolver panics mid-solve — the hostile tenant every shared pool
// eventually meets. Tests use it to pin the containment contract.
type panicSolver struct{}

func (panicSolver) Name() string     { return "test-panic" }
func (panicSolver) Describe() string { return "test solver that panics immediately" }
func (panicSolver) Solve(context.Context, *etc.Instance, solver.Budget) (*solver.Result, error) {
	panic("boom: synthetic solver panic")
}

func init() { solver.Register(panicSolver{}) }

// TestSolverPanicContained pins the worker-pool containment contract:
// a panicking solver must fail its job (with the panic value and stack
// in the error), leave the pool at full strength, count under the
// panic metric label, and never wedge Shutdown. Before the recover
// guard in Server.solve, each panic silently killed one worker
// goroutine, the job never turned terminal, and Shutdown hung forever
// on the worker WaitGroup.
func TestSolverPanicContained(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 2, QueueSize: 16})

	// More panics than workers: with the pre-fix goroutine leak this
	// would strand the later jobs queued forever.
	const panics = 5
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < panics; i++ {
		j, err := svc.Submit(JobSpec{Solver: "test-panic", Instance: "u_c_hihi.0"})
		if err != nil {
			t.Fatal(err)
		}
		done, err := svc.Wait(ctx, j.ID)
		if err != nil {
			t.Fatalf("Wait on panicked job %d: %v", i, err)
		}
		if done.State != StateFailed {
			t.Fatalf("panicked job state = %s, want failed", done.State)
		}
		if !strings.Contains(done.Error, "solver panic: boom") {
			t.Errorf("job error %q missing the panic value", done.Error)
		}
		if !strings.Contains(done.Error, "goroutine ") {
			t.Errorf("job error missing the stack trace:\n%s", done.Error)
		}
	}

	// The pool survived: an ordinary job still runs to completion.
	j, err := svc.Submit(JobSpec{Solver: "minmin", Instance: "u_c_hihi.0"})
	if err != nil {
		t.Fatal(err)
	}
	done, err := svc.Wait(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateDone {
		t.Fatalf("post-panic job state = %s, want done", done.State)
	}

	// Panics are split out from ordinary failures in the exposition.
	if body := scrape(t, ts.URL); !strings.Contains(body,
		fmt.Sprintf(`gridsched_jobs_finished_total{state="panic"} %d`, panics)) {
		t.Errorf("/metrics missing the panic-labelled finish count:\n%s", body)
	}
	// The stats book files them as failures of the panicking solver;
	// every retirement is counted by the time Wait returns.
	found := false
	for _, s := range svc.Stats().Solvers {
		if s.Solver == "test-panic" {
			found = true
			if s.Failed != panics {
				t.Errorf("test-panic failed count = %d, want %d", s.Failed, panics)
			}
		}
	}
	if !found {
		t.Error("stats have no test-panic row")
	}

	// Shutdown must return: every worker is still alive to drain.
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer shutCancel()
	if err := svc.Shutdown(shutCtx); err != nil {
		t.Fatalf("Shutdown after panics: %v", err)
	}
}

// TestQueueDepthSingleSource pins the accounting reconciliation: the
// gridsched_queue_depth gauge and Stats().Queued must agree even when
// jobs are cancelled while queued. The gauge used to read
// len(s.queue), which still counts a cancelled job's dead channel slot
// until a worker drains it, so the two surfaces drifted.
func TestQueueDepthSingleSource(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1, QueueSize: 8})

	blocker, err := svc.Submit(JobSpec{Solver: "test-block", Instance: "u_c_hihi.0"})
	if err != nil {
		t.Fatal(err)
	}
	pollState(t, ts.URL, blocker.ID, 5*time.Second, func(j jobJSON) bool { return j.State == StateRunning })

	// Three queued jobs behind the blocked worker; cancel two of them.
	// Both stay in the channel (the worker is busy), but only one is
	// still genuinely queued.
	ids := make([]string, 3)
	for i := range ids {
		j, err := svc.Submit(JobSpec{Solver: "minmin", Instance: "u_c_hihi.0"})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = j.ID
	}
	for _, id := range ids[:2] {
		if _, err := svc.Cancel(id); err != nil {
			t.Fatal(err)
		}
	}

	if st := svc.Stats(); st.Queued != 1 {
		t.Errorf("Stats().Queued = %d, want 1 (cancelled jobs must not count)", st.Queued)
	}
	body := scrape(t, ts.URL)
	if !strings.Contains(body, "gridsched_queue_depth 1\n") {
		t.Errorf("gridsched_queue_depth disagrees with /v1/stats (want 1):\n%s",
			grepLine(body, "gridsched_queue_depth"))
	}

	// Unblock; the surviving job runs, and both surfaces settle to zero.
	if _, err := svc.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
	pollState(t, ts.URL, ids[2], 10*time.Second, func(j jobJSON) bool { return j.State == StateDone })
	if st := svc.Stats(); st.Queued != 0 {
		t.Errorf("Stats().Queued after drain = %d, want 0", st.Queued)
	}
	if body := scrape(t, ts.URL); !strings.Contains(body, "gridsched_queue_depth 0\n") {
		t.Errorf("gridsched_queue_depth after drain:\n%s", grepLine(body, "gridsched_queue_depth"))
	}
}

// grepLine returns the exposition lines containing substr, for error
// messages.
func grepLine(body, substr string) string {
	var out []string
	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestJanitorSkipsQueuedGhost pins the eviction/queue reconciliation
// under a tiny TTL: a job cancelled while queued is terminal (and so
// TTL-expirable) while still occupying its queue channel slot. The
// janitor must not evict it until a worker drains the slot — the
// pre-fix sweep deleted it from the job map, and the worker later
// retired a ghost no API could see.
func TestJanitorSkipsQueuedGhost(t *testing.T) {
	// A microscopic TTL so everything terminal is immediately expired.
	svc, ts := newTestServer(t, Config{Workers: 1, QueueSize: 4, ResultTTL: time.Millisecond})

	blocker, err := svc.Submit(JobSpec{Solver: "test-block", Instance: "u_c_hihi.0"})
	if err != nil {
		t.Fatal(err)
	}
	pollState(t, ts.URL, blocker.ID, 5*time.Second, func(j jobJSON) bool { return j.State == StateRunning })

	victim, err := svc.Submit(JobSpec{Solver: "minmin", Instance: "u_c_hihi.0"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Cancel(victim.ID); err != nil {
		t.Fatal(err)
	}

	// Way past the 1ms TTL — but the victim still sits in the channel,
	// so the sweep must keep it.
	time.Sleep(10 * time.Millisecond)
	svc.evictExpired(time.Now())
	j, err := svc.Job(victim.ID)
	if err != nil {
		t.Fatalf("janitor evicted a job still occupying a queue slot: %v", err)
	}
	if j.State != StateCancelled {
		t.Fatalf("victim state = %s, want cancelled", j.State)
	}

	// Release the worker; it drains the victim's slot (skipping the
	// run), after which the sweep may finally evict it.
	if _, err := svc.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		svc.evictExpired(time.Now())
		if _, err := svc.Job(victim.ID); err == ErrNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("victim never became evictable after its queue slot drained")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st := svc.Stats(); st.Evicted < 1 {
		t.Errorf("Stats().Evicted = %d, want >= 1", st.Evicted)
	}
	// The HTTP surface agrees: the evicted job is gone, not a ghost.
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+victim.ID, "", nil); code != http.StatusNotFound {
		t.Errorf("evicted job GET status = %d, want 404", code)
	}
}
