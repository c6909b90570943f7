package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"gridsched/internal/obs"
	"gridsched/internal/solver"
)

// Handler returns the service's HTTP/JSON API:
//
//	POST   /v1/jobs             submit a job (202; 429 when the queue is full)
//	GET    /v1/jobs             list retained jobs, newest first
//	                            (?state=queued|running|done|failed|cancelled,
//	                            ?limit=N)
//	GET    /v1/jobs/{id}        job status and, once finished, its result
//	GET    /v1/jobs/{id}/trace  lifecycle phases and convergence events
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/solvers          the registered solver names and descriptions
//	GET    /v1/stats            service and per-solver counters
//	GET    /metrics             Prometheus text-format exposition
//	GET    /healthz             liveness (503 while draining)
//
// Durations in request and response bodies are Go duration strings
// ("90s", "1.5m"). A job's task→machine assignment is large (one int
// per task), so GET /v1/jobs/{id} includes it only when asked:
// ?include=assignment.
//
// Every response is counted in gridsched_http_requests_total by status
// and method. Submits read the request context's request ID (set by
// obs.AccessLog, or by any middleware calling obs.WithRequestID) into
// the job's spec, tying job logs and traces to the originating
// request.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/solvers", s.handleSolvers)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.Handle("GET /metrics", s.met.reg.Handler())
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return obs.Instrument(s.met.http, mux)
}

// jobRequest is the submit body.
type jobRequest struct {
	Solver   string      `json:"solver"`
	Instance string      `json:"instance,omitempty"`
	Matrix   *matrixJSON `json:"matrix,omitempty"`
	Budget   *budgetJSON `json:"budget,omitempty"`
	Seed     uint64      `json:"seed,omitempty"`
}

type matrixJSON struct {
	Name     string    `json:"name,omitempty"`
	Tasks    int       `json:"tasks"`
	Machines int       `json:"machines"`
	ETC      []float64 `json:"etc"`
}

// budgetJSON mirrors solver.Budget with the duration as a string.
type budgetJSON struct {
	MaxDuration    string `json:"max_duration,omitempty"`
	MaxEvaluations int64  `json:"max_evaluations,omitempty"`
	MaxGenerations int64  `json:"max_generations,omitempty"`
}

func (b *budgetJSON) toBudget() (solver.Budget, error) {
	if b == nil {
		return solver.Budget{}, nil
	}
	out := solver.Budget{
		MaxEvaluations: b.MaxEvaluations,
		MaxGenerations: b.MaxGenerations,
	}
	if b.MaxDuration != "" {
		d, err := time.ParseDuration(b.MaxDuration)
		if err != nil {
			return solver.Budget{}, fmt.Errorf("budget.max_duration: %w", err)
		}
		out.MaxDuration = d
	}
	return out, nil
}

func budgetToJSON(b solver.Budget) *budgetJSON {
	if b.IsZero() {
		return nil
	}
	out := &budgetJSON{
		MaxEvaluations: b.MaxEvaluations,
		MaxGenerations: b.MaxGenerations,
	}
	if b.MaxDuration > 0 {
		out.MaxDuration = b.MaxDuration.String()
	}
	return out
}

// jobJSON is the wire shape of a Job snapshot.
type jobJSON struct {
	ID       string      `json:"id"`
	Solver   string      `json:"solver"`
	Instance string      `json:"instance"`
	Tasks    int         `json:"tasks"`
	Machines int         `json:"machines"`
	State    JobState    `json:"state"`
	Budget   *budgetJSON `json:"budget,omitempty"`
	Seed     uint64      `json:"seed,omitempty"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	Wait        string     `json:"wait,omitempty"`

	Error  string         `json:"error,omitempty"`
	Result *jobResultJSON `json:"result,omitempty"`
}

type jobResultJSON struct {
	Makespan         float64 `json:"makespan"`
	Flowtime         float64 `json:"flowtime"`
	Utilization      float64 `json:"utilization"`
	ImbalanceCV      float64 `json:"imbalance_cv"`
	Evaluations      int64   `json:"evaluations"`
	Generations      int64   `json:"generations"`
	LocalSearchMoves int64   `json:"local_search_moves"`
	Duration         string  `json:"duration"`
	// EffectiveBudget is the bound the run actually enforced (the
	// submitted budget plus any context deadline the engine absorbed).
	EffectiveBudget *budgetJSON `json:"effective_budget,omitempty"`
	// PerConstituent breaks a composite (portfolio) job down by
	// constituent solver; omitted for single-solver jobs.
	PerConstituent []constituentJSON `json:"per_constituent,omitempty"`
	Assignment     []int             `json:"assignment,omitempty"`
}

// constituentJSON is the wire shape of one constituent's share of a
// portfolio job.
type constituentJSON struct {
	Solver       string  `json:"solver"`
	Evaluations  int64   `json:"evaluations"`
	Generations  int64   `json:"generations"`
	Rounds       int64   `json:"rounds"`
	Improvements int64   `json:"improvements"`
	BestFitness  float64 `json:"best_fitness,omitempty"`
	Busy         string  `json:"busy"`
	Error        string  `json:"error,omitempty"`
}

func jobToJSON(j Job, includeAssignment bool) jobJSON {
	out := jobJSON{
		ID:          j.ID,
		Solver:      j.Solver,
		Instance:    j.Instance,
		Tasks:       j.Tasks,
		Machines:    j.Machines,
		State:       j.State,
		Budget:      budgetToJSON(j.Budget),
		Seed:        j.Seed,
		SubmittedAt: j.SubmittedAt,
		Error:       j.Error,
	}
	if !j.StartedAt.IsZero() {
		t := j.StartedAt
		out.StartedAt = &t
		out.Wait = j.Wait().String()
	}
	if !j.FinishedAt.IsZero() {
		t := j.FinishedAt
		out.FinishedAt = &t
	}
	if r := j.Result; r != nil {
		out.Result = &jobResultJSON{
			Makespan:         r.Makespan,
			Flowtime:         r.Flowtime,
			Utilization:      r.Utilization,
			ImbalanceCV:      r.ImbalanceCV,
			Evaluations:      r.Evaluations,
			Generations:      r.Generations,
			LocalSearchMoves: r.LocalSearchMoves,
			Duration:         r.Duration.String(),
			EffectiveBudget:  budgetToJSON(r.EffectiveBudget),
		}
		for _, c := range r.PerConstituent {
			out.Result.PerConstituent = append(out.Result.PerConstituent, constituentJSON{
				Solver:       c.Solver,
				Evaluations:  c.Evaluations,
				Generations:  c.Generations,
				Rounds:       c.Rounds,
				Improvements: c.Improvements,
				BestFitness:  c.BestFitness,
				Busy:         c.Busy.String(),
				Error:        c.Err,
			})
		}
		if includeAssignment {
			out.Result.Assignment = r.Assignment
		}
	}
	return out
}

// maxSubmitBody bounds a submit request's body under the default
// matrix-entry cap. The largest legitimate payload is an inline matrix
// at the cap (~25 JSON bytes per value ≈ 26 MB at the default 1<<20
// entries); 64 MB leaves slack without letting a client buffer
// gigabytes into the decoder.
const maxSubmitBody = 64 << 20

// submitBodyLimit scales the body bound with the configured matrix
// cap so a raised (or disabled) MaxMatrixEntries is not silently
// contradicted by the HTTP layer.
func (s *Server) submitBodyLimit() int64 {
	entries := s.cfg.MaxMatrixEntries
	if entries < 0 {
		return 1 << 40 // cap disabled by a trusted embedder: don't re-cap here
	}
	if need := int64(entries)*32 + (1 << 20); need > maxSubmitBody {
		return need
	}
	return maxSubmitBody
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req jobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.submitBodyLimit()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
			return
		}
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	budget, err := req.Budget.toBudget()
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	spec := JobSpec{
		Solver:    req.Solver,
		Instance:  req.Instance,
		Budget:    budget,
		Seed:      req.Seed,
		RequestID: obs.RequestIDFrom(r.Context()),
	}
	if req.Matrix != nil {
		spec.Matrix = &MatrixSpec{
			Name:     req.Matrix.Name,
			Tasks:    req.Matrix.Tasks,
			Machines: req.Matrix.Machines,
			ETC:      req.Matrix.ETC,
		}
	}
	job, err := s.Submit(spec)
	if err != nil {
		httpError(w, submitStatus(err), err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+job.ID)
	writeJSON(w, http.StatusAccepted, jobToJSON(job, false))
}

// submitStatus maps Submit errors to HTTP statuses.
func submitStatus(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

// listStates are the states ?state= accepts.
var listStates = map[JobState]bool{
	StateQueued:    true,
	StateRunning:   true,
	StateDone:      true,
	StateFailed:    true,
	StateCancelled: true,
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var state JobState
	if raw := q.Get("state"); raw != "" {
		state = JobState(raw)
		if !listStates[state] {
			httpError(w, http.StatusBadRequest, fmt.Errorf("unknown state %q", raw))
			return
		}
	}
	limit := 0
	if raw := q.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("limit must be a non-negative integer, got %q", raw))
			return
		}
		limit = n
	}
	jobs := s.ListJobs(state, limit)
	out := make([]jobJSON, len(jobs))
	for i, j := range jobs {
		out[i] = jobToJSON(j, false)
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, err := s.Job(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, jobToJSON(j, r.URL.Query().Get("include") == "assignment"))
}

// traceJSON is the wire shape of a JobTrace; durations are Go duration
// strings, elapsed offsets additionally in milliseconds for plotting.
type traceJSON struct {
	ID        string           `json:"id"`
	Solver    string           `json:"solver"`
	Instance  string           `json:"instance"`
	State     JobState         `json:"state"`
	RequestID string           `json:"request_id,omitempty"`
	Phases    []spanJSON       `json:"phases"`
	Events    []traceEventJSON `json:"events"`
	Dropped   int64            `json:"dropped,omitempty"`
}

type spanJSON struct {
	Phase    string `json:"phase"`
	Start    string `json:"start"`
	Duration string `json:"duration"`
}

type traceEventJSON struct {
	Kind      string  `json:"kind"`
	Lane      string  `json:"lane,omitempty"`
	Evals     int64   `json:"evals"`
	ElapsedMS float64 `json:"elapsed_ms"`
	Fitness   float64 `json:"fitness"`
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	tr, err := s.Trace(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	out := traceJSON{
		ID:        tr.ID,
		Solver:    tr.Solver,
		Instance:  tr.Instance,
		State:     tr.State,
		RequestID: tr.RequestID,
		Phases:    make([]spanJSON, len(tr.Phases)),
		Events:    make([]traceEventJSON, len(tr.Events)),
		Dropped:   tr.Dropped,
	}
	for i, p := range tr.Phases {
		out.Phases[i] = spanJSON{
			Phase:    p.Phase,
			Start:    p.Start.String(),
			Duration: p.Duration.String(),
		}
	}
	for i, ev := range tr.Events {
		out.Events[i] = traceEventJSON{
			Kind:      ev.Kind,
			Lane:      ev.Lane,
			Evals:     ev.Evals,
			ElapsedMS: float64(ev.Elapsed) / float64(time.Millisecond),
			Fitness:   ev.Fitness,
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, jobToJSON(j, false))
}

func (s *Server) handleSolvers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"solvers": solver.List()})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	type solverStatsJSON struct {
		Solver         string  `json:"solver"`
		Done           int64   `json:"done"`
		Failed         int64   `json:"failed"`
		Cancelled      int64   `json:"cancelled"`
		Evaluations    int64   `json:"evaluations"`
		BusyTime       string  `json:"busy_time"`
		MeanLatency    string  `json:"mean_latency"`
		MaxLatency     string  `json:"max_latency"`
		EvalsPerSecond float64 `json:"evals_per_second"`
	}
	solvers := make([]solverStatsJSON, len(st.Solvers))
	for i, sv := range st.Solvers {
		solvers[i] = solverStatsJSON{
			Solver:         sv.Solver,
			Done:           sv.Done,
			Failed:         sv.Failed,
			Cancelled:      sv.Cancelled,
			Evaluations:    sv.Evaluations,
			BusyTime:       sv.BusyTime.String(),
			MeanLatency:    sv.MeanLatency.String(),
			MaxLatency:     sv.MaxLatency.String(),
			EvalsPerSecond: sv.EvalsPerSecond,
		}
	}
	// shards is a one-element array describing the run queue (see
	// ShardStats), kept for clients of the former per-shard breakdown.
	type shardStatsJSON struct {
		Shard          int   `json:"shard"`
		Submitted      int64 `json:"submitted"`
		Finished       int64 `json:"finished"`
		Stolen         int64 `json:"stolen"`
		Queued         int   `json:"queued"`
		Running        int   `json:"running"`
		Retained       int   `json:"retained"`
		QueueDepthPeak int   `json:"queue_depth_peak"`
	}
	shards := make([]shardStatsJSON, len(st.Shards))
	for i, sh := range st.Shards {
		shards[i] = shardStatsJSON{
			Shard:          sh.Shard,
			Submitted:      sh.Submitted,
			Finished:       sh.Finished,
			Stolen:         sh.Stolen,
			Queued:         sh.Queued,
			Running:        sh.Running,
			Retained:       sh.Retained,
			QueueDepthPeak: sh.QueueDepthPeak,
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"uptime":         st.Uptime.String(),
		"workers":        st.Workers,
		"queue_capacity": st.QueueCapacity,
		"queued":         st.Queued,
		"running":        st.Running,
		"retained":       st.Retained,
		"evicted":        st.Evicted,
		"shards":         shards,
		"cache": map[string]any{
			"hits":    st.CacheHits,
			"misses":  st.CacheMisses,
			"joins":   st.CacheJoins,
			"entries": st.CacheEntries,
		},
		"store": map[string]any{
			"serves":    st.StoreServes,
			"instances": st.StoreInstances,
		},
		"solvers": solvers,
	})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"uptime": time.Since(s.start).String(),
	})
}

// Draining reports whether Shutdown has started; the health endpoint
// uses it to fail liveness so load balancers stop routing here.
func (s *Server) Draining() bool {
	return s.closed.Load()
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]any{"error": err.Error()})
}
