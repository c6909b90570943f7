package service

import (
	"context"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestStatsCounterProperty is the stats book's correctness property
// under churn: while jobs retire across workers, concurrently observed
// totals (queue finished, per-solver done+failed+cancelled, submitted)
// must never regress, and once the last Wait has returned — with no
// other synchronisation — the three totals must agree exactly with the
// number of jobs submitted, and the queue row may report no more
// steals than retirements.
func TestStatsCounterProperty(t *testing.T) {
	svc := New(Config{Workers: 4, QueueSize: 256})
	defer svc.Close()

	const jobs = 120
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Observer: sample Stats as fast as possible during the churn.
	var (
		obsWG   sync.WaitGroup
		stopObs = make(chan struct{})
		reads   int
	)
	obsWG.Add(1)
	go func() {
		defer obsWG.Done()
		var last [3]int64 // finished, retired per solver, submitted
		for {
			select {
			case <-stopObs:
				return
			default:
			}
			cur := counterTotals(svc.Stats())
			reads++
			for k, name := range []string{"per-shard finished", "per-solver retired", "submitted"} {
				if cur[k] < last[k] {
					t.Errorf("%s total regressed: %d after %d", name, cur[k], last[k])
					return
				}
			}
			last = cur
		}
	}()

	ids := make([]string, 0, jobs)
	for i := 0; i < jobs; i++ {
		j, err := svc.Submit(JobSpec{Solver: "minmin", Instance: "u_c_hihi.0@64x8"})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
		if i%5 == 0 { // a few cancellations keep all three terminal states in play
			_, _ = svc.Cancel(j.ID)
		}
	}
	for _, id := range ids {
		if _, err := svc.Wait(ctx, id); err != nil {
			t.Fatalf("Wait(%s): %v", id, err)
		}
	}
	close(stopObs)
	obsWG.Wait()
	if reads == 0 {
		t.Error("observer never read Stats during the churn")
	}

	st := svc.Stats()
	for _, sh := range st.Shards {
		if sh.Stolen > sh.Finished {
			t.Errorf("shard %d: stolen %d > finished %d", sh.Shard, sh.Stolen, sh.Finished)
		}
	}
	if got := counterTotals(st); got != [3]int64{jobs, jobs, jobs} {
		t.Errorf("totals after the last Wait: per-shard %d, per-solver %d, submitted %d, want %d each",
			got[0], got[1], got[2], jobs)
	}
}

// counterTotals sums a Stats read into its queue-row finished,
// per-solver retired (done+failed+cancelled) and submitted totals.
func counterTotals(st Stats) [3]int64 {
	var tot [3]int64
	for _, sh := range st.Shards {
		tot[0] += sh.Finished
		tot[2] += sh.Submitted
	}
	for _, sv := range st.Solvers {
		tot[1] += sv.Done + sv.Failed + sv.Cancelled
	}
	return tot
}

// TestStatsReadLockFree pins the acceptance criterion that /v1/stats
// and /metrics are served from live atomics with no lock acquisition:
// with the job-store lock and the instance-cache lock held hostage,
// Stats() and a full metrics scrape must still return.
func TestStatsReadLockFree(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 2, QueueSize: 8})

	// Retire some work first so the counters are non-trivial.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	j, err := svc.Submit(JobSpec{Solver: "minmin", Instance: "u_c_hihi.0@64x8"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Wait(ctx, j.ID); err != nil {
		t.Fatal(err)
	}

	svc.mu.Lock()
	defer svc.mu.Unlock()
	svc.cache.mu.Lock()
	defer svc.cache.mu.Unlock()

	type result struct {
		stats Stats
		body  string
	}
	got := make(chan result, 1)
	go func() {
		st := svc.Stats()
		got <- result{stats: st, body: scrape(t, ts.URL)}
	}()
	select {
	case r := <-got:
		if got := counterTotals(r.stats); got != [3]int64{1, 1, 1} {
			t.Errorf("totals (finished, retired, submitted) = %v after one job, want 1 each", got)
		}
		if len(r.body) == 0 {
			t.Errorf("empty metrics exposition")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Stats()/scrape blocked while the job-store lock was held — the read path takes a lock")
	}
}

// TestListJobsFilters covers the ?state=/?limit= listing path at both
// the Go and HTTP layers, against a mixed queued/running/terminal set.
func TestListJobsFilters(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1, QueueSize: 16})

	blocker, err := svc.Submit(JobSpec{Solver: "test-block", Instance: "u_c_hihi.0@64x8"})
	if err != nil {
		t.Fatal(err)
	}
	pollState(t, ts.URL, blocker.ID, 5*time.Second, func(j jobJSON) bool { return j.State == StateRunning })
	var queued []string
	for i := 0; i < 4; i++ {
		j, err := svc.Submit(JobSpec{Solver: "minmin", Instance: "u_c_hihi.0@64x8"})
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, j.ID)
	}

	if got := svc.ListJobs(StateQueued, 0); len(got) != 4 {
		t.Errorf("ListJobs(queued) = %d jobs, want 4", len(got))
	}
	if got := svc.ListJobs(StateRunning, 0); len(got) != 1 || got[0].ID != blocker.ID {
		t.Errorf("ListJobs(running) = %+v, want just the blocker", got)
	}
	if got := svc.ListJobs("", 2); len(got) != 2 {
		t.Errorf("ListJobs(limit=2) = %d jobs, want 2", len(got))
	}
	// Newest first: the limited listing returns the latest submissions.
	if got := svc.ListJobs(StateQueued, 1); len(got) != 1 || got[0].ID != queued[3] {
		t.Errorf("ListJobs(queued, 1) = %+v, want newest queued job %s", got, queued[3])
	}

	var list struct {
		Jobs []jobJSON `json:"jobs"`
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs?state=queued", "", &list); code != http.StatusOK {
		t.Fatalf("GET ?state=queued: status %d", code)
	}
	if len(list.Jobs) != 4 {
		t.Errorf("HTTP ?state=queued returned %d jobs, want 4", len(list.Jobs))
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs?state=queued&limit=2", "", &list); code != http.StatusOK || len(list.Jobs) != 2 {
		t.Errorf("HTTP ?state=queued&limit=2: status %d, %d jobs, want 200/2", code, len(list.Jobs))
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs?state=bogus", "", nil); code != http.StatusBadRequest {
		t.Errorf("HTTP ?state=bogus: status %d, want 400", code)
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs?limit=-3", "", nil); code != http.StatusBadRequest {
		t.Errorf("HTTP ?limit=-3: status %d, want 400", code)
	}

	if _, err := svc.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
}

// TestDispatchFIFO pins the run queue's dispatch order: with the lone
// worker held by a blocker, queued jobs must start in submit order
// once it is released.
func TestDispatchFIFO(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1, QueueSize: 16})

	blocker, err := svc.Submit(JobSpec{Solver: "test-block", Instance: "u_c_hihi.0@64x8"})
	if err != nil {
		t.Fatal(err)
	}
	pollState(t, ts.URL, blocker.ID, 5*time.Second, func(j jobJSON) bool { return j.State == StateRunning })
	ids := make([]string, 8)
	for i := range ids {
		j, err := svc.Submit(JobSpec{Solver: "minmin", Instance: "u_c_hihi.0@64x8"})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = j.ID
	}
	if _, err := svc.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var prev Job
	for i, id := range ids {
		j, err := svc.Wait(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if j.State != StateDone {
			t.Fatalf("job %s: state %s (error %q)", id, j.State, j.Error)
		}
		if i > 0 && j.StartedAt.Before(prev.FinishedAt) {
			t.Errorf("job %d (%s) started at %v, before job %d (%s) finished at %v",
				i, id, j.StartedAt, i-1, prev.ID, prev.FinishedAt)
		}
		prev = j
	}
}

// TestServiceStormRace is the -race soak of the service core: submits,
// cancels, stats reads, listings and scrapes hammer the job store and
// the run queue at once, then Shutdown races the storm. Every accepted
// job must end terminal.
func TestServiceStormRace(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 4, QueueSize: 64})

	var (
		mu       sync.Mutex
		accepted []string
		stop     atomic.Bool
		wg       sync.WaitGroup
	)
	spec := JobSpec{Solver: "minmin", Instance: "u_c_hihi.0@64x8"}
	if _, err := svc.Submit(spec); err != nil { // warm the cache
		t.Fatal(err)
	}

	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				j, err := svc.Submit(spec)
				switch err {
				case nil:
					mu.Lock()
					accepted = append(accepted, j.ID)
					n := len(accepted)
					victim := accepted[rnd.Intn(n)]
					mu.Unlock()
					if rnd.Intn(4) == 0 {
						_, _ = svc.Cancel(victim)
					}
				case ErrClosed:
					return
				case ErrQueueFull:
					time.Sleep(time.Millisecond)
				default:
					t.Errorf("Submit: %v", err)
					return
				}
			}
		}(int64(g + 1))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			_ = svc.Stats()
			_ = svc.ListJobs(StateQueued, 8)
			_ = scrape(t, ts.URL)
		}
	}()

	time.Sleep(150 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	stop.Store(true)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	for _, id := range accepted {
		j, err := svc.Wait(ctx, id)
		if err != nil {
			t.Fatalf("Wait(%s): %v", id, err)
		}
		if !j.State.Terminal() {
			t.Fatalf("job %s stranded in %s after Shutdown", id, j.State)
		}
	}
}
