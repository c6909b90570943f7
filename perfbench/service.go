package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gridsched/internal/etc"
	"gridsched/internal/instdb"
	"gridsched/internal/rng"
	"gridsched/internal/schedule"
	"gridsched/internal/service"
)

// Service phase settings. The open loop's writers and reader share
// nproc connections and each job makes two requests on them; at
// openRate, on a 2-CPU host, they are about a quarter busy, so the open
// loop runs with headroom and its queue stays short.
const (
	svcTasks, svcMachines = 64, 8
	openRate              = 500.0 // jobs/s
	tabuEvals             = 2000
	readEvery             = 10 * time.Millisecond
	warmupJobs            = 200
	// maxInFlight bounds the open loop's outstanding jobs; a full
	// window delays later sends, which shows as generator lateness.
	maxInFlight = 1024
)

// jobKind is one entry of the service job mix.
type jobKind int

const (
	kindStore  jobKind = iota // minmin on a name served by the instdb store
	kindCache                 // minmin on a name resolved through the generation cache
	kindInline                // minmin on an inline matrix
	kindTabu                  // tabu with a small budget on a stored name
	numKinds
)

var (
	kindNames   = [numKinds]string{"minmin-store", "minmin-cache", "minmin-inline", "tabu-store"}
	kindWeights = [numKinds]int{70, 15, 10, 5}
)

func mixString() string {
	var parts []string
	for k := jobKind(0); k < numKinds; k++ {
		parts = append(parts, fmt.Sprintf("%s:%d%%", kindNames[k], kindWeights[k]))
	}
	return strings.Join(parts, ",")
}

// jobReq is one job of the mix: the submit body and the instance the
// client checks the result against.
type jobReq struct {
	kind jobKind
	name string
	body []byte
}

// svcInputs are the served instance names, the client's own copy of
// every instance, and the reusable Min-min submit bodies.
type svcInputs struct {
	storeNames  []string
	cacheNames  []string
	inlineNames []string
	local       map[string]*etc.Instance
	bodies      map[string][]byte
}

func newSvcInputs() (*svcInputs, error) {
	in := &svcInputs{local: make(map[string]*etc.Instance), bodies: make(map[string][]byte)}
	for i, cl := range etc.AllClasses() {
		for k := 0; k < 4; k++ {
			cl.Index = k
			in.storeNames = append(in.storeNames, etc.SizedName(cl, svcTasks, svcMachines))
		}
		cl.Index = 4
		in.cacheNames = append(in.cacheNames, etc.SizedName(cl, svcTasks, svcMachines))
		if i%3 == 0 {
			cl.Index = 5
			in.inlineNames = append(in.inlineNames, etc.SizedName(cl, svcTasks, svcMachines))
		}
	}
	for _, names := range [][]string{in.storeNames, in.cacheNames, in.inlineNames} {
		for _, name := range names {
			inst, err := etc.GenerateByName(name)
			if err != nil {
				return nil, err
			}
			in.local[name] = inst
		}
	}
	for _, name := range append(append([]string(nil), in.storeNames...), in.cacheNames...) {
		in.bodies[name] = []byte(fmt.Sprintf(`{"solver":"minmin","instance":%q}`, name))
	}
	for _, name := range in.inlineNames {
		inst := in.local[name]
		body, err := json.Marshal(map[string]any{
			"solver": "minmin",
			"matrix": map[string]any{"name": name, "tasks": inst.T, "machines": inst.M, "etc": inst.Row},
		})
		if err != nil {
			return nil, err
		}
		in.bodies[name] = body
	}
	return in, nil
}

// drawJobs draws n jobs of the mix from r.
func drawJobs(r *rng.Rand, in *svcInputs, n int) []jobReq {
	total := 0
	for _, w := range kindWeights {
		total += w
	}
	out := make([]jobReq, n)
	for i := range out {
		x := r.Intn(total)
		k := jobKind(0)
		for ; x >= kindWeights[k]; k++ {
			x -= kindWeights[k]
		}
		var name string
		switch k {
		case kindStore, kindTabu:
			name = in.storeNames[r.Intn(len(in.storeNames))]
		case kindCache:
			name = in.cacheNames[r.Intn(len(in.cacheNames))]
		case kindInline:
			name = in.inlineNames[r.Intn(len(in.inlineNames))]
		}
		body := in.bodies[name]
		if k == kindTabu {
			body = []byte(fmt.Sprintf(`{"solver":"tabu","instance":%q,"budget":{"max_evaluations":%d},"seed":%d}`,
				name, tabuEvals, r.Uint64()|1))
		}
		out[i] = jobReq{kind: k, name: name, body: body}
	}
	return out
}

// arrivals draws a Poisson arrival schedule at rate per second over
// seconds, as offsets from the start of the open loop.
func arrivals(r *rng.Rand, rate, seconds float64) []time.Duration {
	var out []time.Duration
	at := 0.0
	for {
		at += -math.Log(1-r.Float64()) / rate
		if at >= seconds {
			return out
		}
		out = append(out, time.Duration(at*float64(time.Second)))
	}
}

// openLoop calls call(i) at start+sched[i] whatever the state of
// earlier calls, with at most maxInFlight outstanding. Each call's
// latency runs from the time it was due, so a stall also delays the
// requests due during it; late is how far each send lagged its
// schedule.
func openLoop(ctx context.Context, sched []time.Duration, maxInFlight int, call func(i int, due time.Time)) (lat, late []time.Duration) {
	lat = make([]time.Duration, len(sched))
	late = make([]time.Duration, len(sched))
	sem := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	start := time.Now()
	for i, at := range sched {
		due := start.Add(at)
		if d := time.Until(due); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			lat, late = lat[:i], late[:i]
			break
		}
		sem <- struct{}{}
		late[i] = time.Since(due)
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			call(i, due)
			lat[i] = time.Since(due)
			<-sem
		}(i, due)
	}
	wg.Wait()
	return lat, late
}

// closedLoop runs n calls on conns clients, each starting its next call
// when the previous returns, and reports the elapsed time.
func closedLoop(ctx context.Context, conns, n int, call func(i int)) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				call(i)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// svcHarness is a running server behind a loopback HTTP listener.
type svcHarness struct {
	in       *svcInputs
	store    *instdb.Store
	srv      *service.Server
	handler  http.Handler
	ts       *httptest.Server
	threads  int
	traceSeq atomic.Uint64
}

// startService builds the instdb store, decodes it, and starts the
// server with nproc workers and the default config otherwise.
func startService(cfg runConfig, tr *tracer) (h *svcHarness, build, decode time.Duration, err error) {
	t0 := time.Now()
	in, err := newSvcInputs()
	if err != nil {
		return nil, 0, 0, err
	}
	t1 := time.Now()
	var buf bytes.Buffer
	if _, err := instdb.Build(&buf, in.storeNames); err != nil {
		return nil, 0, 0, err
	}
	t2 := time.Now()
	store, err := instdb.Decode(buf.Bytes())
	if err != nil {
		return nil, 0, 0, err
	}
	t3 := time.Now()
	srv := service.New(service.Config{Workers: cfg.threads, InstanceDB: store})
	h = &svcHarness{in: in, store: store, srv: srv, handler: srv.Handler(), threads: cfg.threads}
	h.ts = httptest.NewServer(h.handler)
	t4 := time.Now()
	tr.add(0, -1, "etc.generate", t0, t1)
	tr.add(0, -1, "instdb.build", t1, t2)
	tr.add(0, -1, "instdb.decode", t2, t3)
	tr.add(0, -1, "service.start", t3, t4)
	return h, t2.Sub(t1), t3.Sub(t2), nil
}

func (h *svcHarness) close() {
	h.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = h.srv.Shutdown(ctx) // every job has been waited for; a timeout only delays exit
}

func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
}

// jobSample is one job's client-side timeline and final server
// snapshot.
type jobSample struct {
	due         time.Time // scheduled send time
	sent        time.Time // POST started
	accepted    time.Time // 202 decoded
	waited      time.Time // Server.Wait returned
	getStart    time.Time // GET started
	decoded     time.Time // result decoded
	job         service.Job
	resultBytes int
}

// jobWire is the part of GET /v1/jobs/{id} the client checks.
type jobWire struct {
	State  string `json:"state"`
	Result *struct {
		Makespan   float64 `json:"makespan"`
		Assignment []int   `json:"assignment"`
	} `json:"result"`
}

// doJob submits one job, waits for it through Server.Wait (no polling
// quantum), fetches its result with the assignment and checks it.
func (h *svcHarness) doJob(ctx context.Context, c *http.Client, req jobReq, due time.Time, tr *tracer) (jobSample, []problem) {
	s := jobSample{due: due, sent: time.Now()}
	var acc struct {
		ID string `json:"id"`
	}
	if _, p := call(ctx, c, http.MethodPost, h.ts.URL+"/v1/jobs", req.body, http.StatusAccepted, &acc); p != nil {
		return s, []problem{*p}
	}
	s.accepted = time.Now()
	job, err := h.srv.Wait(ctx, acc.ID)
	if err != nil {
		return s, []problem{opFail("wait %s: %v", acc.ID, err)}
	}
	s.waited = time.Now()
	s.job = job
	if job.State != service.StateDone {
		return s, []problem{opFail("job %s (%s) ended %s: %s", job.ID, kindNames[req.kind], job.State, job.Error)}
	}
	s.getStart = time.Now()
	var wire jobWire
	n, p := call(ctx, c, http.MethodGet, h.ts.URL+"/v1/jobs/"+acc.ID+"?include=assignment", nil, http.StatusOK, &wire)
	s.decoded = time.Now()
	if p != nil {
		return s, []problem{*p}
	}
	s.resultBytes = n
	if tr != nil {
		id := h.traceSeq.Add(1) | 1<<40
		root := tr.add(id, -1, "job", s.due, s.decoded)
		tr.add(id, root, "http.submit", s.sent, s.accepted)
		tr.add(id, root, "service.queue_wait", job.SubmittedAt, job.StartedAt)
		tr.add(id, root, "service.run", job.StartedAt, job.FinishedAt)
		tr.add(id, root, "service.notify", job.FinishedAt, s.waited)
		tr.add(id, root, "http.result", s.getStart, s.decoded)
	}
	return s, checkJobResult(h.in.local[req.name], acc.ID, wire)
}

// checkJobResult recomputes the returned assignment's makespan against
// the client's own copy of the instance.
func checkJobResult(local *etc.Instance, id string, wire jobWire) []problem {
	if wire.State != string(service.StateDone) || wire.Result == nil {
		return []problem{checkFail("job %s: GET returned state %q without a result", id, wire.State)}
	}
	sched, err := schedule.FromAssignment(local, wire.Result.Assignment)
	if err != nil {
		return []problem{checkFail("job %s: assignment rejected: %v", id, err)}
	}
	if err := sched.Validate(); err != nil {
		return []problem{checkFail("job %s: schedule invalid: %v", id, err)}
	}
	if !sched.Complete() {
		return []problem{checkFail("job %s: assignment leaves tasks unassigned", id)}
	}
	if d := math.Abs(wire.Result.Makespan - sched.Makespan()); d > sched.DriftBound() {
		return []problem{checkFail("job %s: makespan %v, recomputed %v (drift %g > bound %g)",
			id, wire.Result.Makespan, sched.Makespan(), d, sched.DriftBound())}
	}
	return nil
}
