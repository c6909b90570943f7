package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"gridsched/internal/etc"
	"gridsched/internal/rng"
	"gridsched/internal/schedule"
)

// libSpec is a library phase's inputs: named instances solved by
// PA-CGA at a fixed evaluation budget per Solve.
type libSpec struct {
	names []string
	evals int64
}

func (l libSpec) dims() string {
	_, t, m, _ := etc.ParseSizedName(l.names[0])
	if t == 0 {
		t, m = etc.DefaultTasks, etc.DefaultMachines
	}
	return fmt.Sprintf("%dx%d", t, m)
}

// workload is one named set of inputs. Its subject phase gets the run's
// seconds; the other phase is a short companion.
type workload struct {
	name           string
	lib            libSpec
	serviceSubject bool
	// setupReps is how many times set-up runs; setup_s is the median.
	setupReps int
	// closedJobs is the closed-loop phase's fixed job count, so the
	// server's retained jobs (and memory) do not depend on speed.
	closedJobs int
}

// Companion phase sizes, and the least time a subject phase gets.
const (
	companionOpenSeconds = 4.0
	companionClosedJobs  = 5000
	minSubjectSeconds    = 1.0
	// minOpenSeconds keeps at least windowJobs open-loop jobs at
	// openRate.
	minOpenSeconds = 3.0
	// libShare and openShare are the service subject's shares of the run
	// for its library companion and its open loop; the closed loop's
	// fixed job count fills most of the rest.
	libShare  = 0.5
	openShare = 0.3
)

func sizedNames(classes []etc.Class, tasks, machines int) []string {
	out := make([]string, len(classes))
	for i, cl := range classes {
		out[i] = etc.SizedName(cl, tasks, machines)
	}
	return out
}

func mustClass(name string) etc.Class {
	cl, err := etc.ParseClass(name)
	if err != nil {
		panic(err)
	}
	return cl
}

// The workloads. Why each exists is recorded in BENCHMARK.json.
var workloads = map[string]workload{
	"paper-512x16": {
		name: "paper-512x16",
		// The paper's own problem: the 12 Braun classes at 512×16. Its
		// two ETC planes are 64 KiB each and stay cache-resident.
		lib:        libSpec{names: sizedNames(etc.AllClasses(), 512, 16), evals: 25000},
		setupReps:  15,
		closedJobs: companionClosedJobs,
	},
	"service-http": {
		name: "service-http",
		// The companion library phase solves a few of the served 64×8
		// instances, so the solver metrics exist here too.
		lib: libSpec{names: sizedNames([]etc.Class{
			mustClass("u_c_hihi.0"), mustClass("u_s_lohi.0"), mustClass("u_i_hilo.0"), mustClass("u_i_lolo.0"),
		}, svcTasks, svcMachines), evals: 5000},
		serviceSubject: true,
		setupReps:      15,
		closedJobs:     20000,
	},
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func (w workload) libSeconds(total float64) float64 {
	if w.serviceSubject {
		return max(minSubjectSeconds, libShare*total)
	}
	return max(minSubjectSeconds, total-companionOpenSeconds-2)
}

func (w workload) openSeconds(total float64) float64 {
	if w.serviceSubject {
		return max(minOpenSeconds, openShare*total)
	}
	return companionOpenSeconds
}

// env is a workload's set-up state: the library instances with their
// Min-min references, and a running service behind a loopback server.
type env struct {
	insts []*etc.Instance
	refs  []*schedule.Schedule
	svc   *svcHarness

	setupS   []float64 // whole set-up in process CPU seconds, per repetition
	genMs    []float64 // library instance generation, per repetition
	buildMs  []float64 // instdb store build, per repetition
	decodeMs []float64 // instdb store decode, per repetition
	minminMs []float64 // Min-min reference run, per instance
	// warm is the instance with the cheapest Min-min, solved untimed
	// before each library phase.
	warm int
}

// setup builds the workload's inputs setupReps times and keeps the
// last set. The Min-min references are computed once afterwards: they
// are part of checking outputs, not of set-up.
func setup(ctx context.Context, cfg runConfig, tr *tracer) (*env, error) {
	e := &env{}
	ok := false
	defer func() {
		if !ok {
			e.close()
		}
	}()
	for rep := 0; rep < cfg.wl.setupReps; rep++ {
		e.close()
		e.insts = nil
		runtime.GC()
		cpu0 := cpuTime()
		t0 := time.Now()
		for _, name := range cfg.wl.lib.names {
			g0 := time.Now()
			in, err := etc.GenerateByName(name)
			if err != nil {
				return nil, err
			}
			tr.add(0, -1, "etc.generate", g0, time.Now())
			e.insts = append(e.insts, in)
		}
		t1 := time.Now()
		svc, build, decode, err := startService(cfg, tr)
		if err != nil {
			return nil, err
		}
		e.svc = svc
		e.setupS = append(e.setupS, (cpuTime() - cpu0).Seconds())
		e.genMs = append(e.genMs, ms(t1.Sub(t0)))
		e.buildMs = append(e.buildMs, ms(build))
		e.decodeMs = append(e.decodeMs, ms(decode))
	}
	for _, in := range e.insts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		ref := minMin(in)
		t1 := time.Now()
		tr.add(0, -1, "heuristics.minmin", t0, t1)
		e.refs = append(e.refs, ref)
		e.minminMs = append(e.minminMs, ms(t1.Sub(t0)))
		if e.minminMs[len(e.minminMs)-1] < e.minminMs[e.warm] {
			e.warm = len(e.minminMs) - 1
		}
	}
	ok = true
	return e, nil
}

func (e *env) close() {
	if e.svc != nil {
		e.svc.close()
		e.svc = nil
	}
}

// passResult is one measured pass: a library phase then a service
// phase.
type passResult struct {
	lib libResult
	svc svcResult
}

// measure runs one pass of both phases, splitting seconds between
// them as the workload says. pass separates the random streams of the
// passes of one invocation.
func (e *env) measure(ctx context.Context, cfg runConfig, seconds float64, pass uint64, tr *tracer, t *tally) (passResult, error) {
	root := rng.New(cfg.seed).Split(pass)
	lib, err := runLibrary(ctx, e.insts, e.refs, e.warm, cfg.wl.lib.evals, cfg.threads, root.Split(1), cfg.wl.libSeconds(seconds), tr, t)
	if err != nil {
		return passResult{}, err
	}
	svc, err := e.svc.run(ctx, root.Split(2), cfg.wl.openSeconds(seconds), cfg.wl.closedJobs, tr, t)
	if err != nil {
		return passResult{}, err
	}
	return passResult{lib: lib, svc: svc}, nil
}

// endToEnd prints the wall-clock and per-CPU-second figures a user sees
// and returns the bounded end-to-end metrics. On a shared host the
// hypervisor takes vCPUs away (steal) and the co-tenants change what a
// CPU second buys, for stretches that shift those figures by a third
// from run to run, so the bounded throughputs are per reference second
// (ref.go); the other figures are printed beside them and are per-layer
// metrics of the traced run. A job is the subject's unit of work: an
// HTTP job on the service workload, a Solve on the library workload,
// whose short companion closed loop moves too much from run to run to
// bound.
func (e *env) endToEnd(w io.Writer, wl workload, p passResult, t *tally) ([]metric, error) {
	wall, err := p.wallClock(t)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "\nwall-clock and per-CPU-second end-to-end figures (not bounded):")
	printMetrics(w, wall)
	jobs := p.lib.solvesPerRefSecond()
	if wl.serviceSubject {
		jobs = p.svc.closedJobsPerRefSecond()
	}
	attempted, failed, _ := t.counts()
	return []metric{
		{"setup_s", "s", median(e.setupS)},
		{"evals_per_ref_s", "evals/ref-s", p.lib.evalsPerRefSecond()},
		{"makespan_ratio", "ratio", p.lib.makespanRatio()},
		{"jobs_per_ref_s", "jobs/ref-s", jobs},
		{"success_ratio", "ratio", 1 - float64(failed)/float64(max(attempted, 1))},
		{"peak_rss_mb", "MiB", peakRSSMiB()},
	}, nil
}

// wallClock is a pass's wall-clock and per-CPU-second figures, and the
// host's reference rate beside them.
func (p passResult) wallClock(t *tally) ([]metric, error) {
	p50, err := p.svc.jobPercentile(50)
	if err != nil {
		return nil, err
	}
	p99, err := p.svc.jobPercentile(99)
	if err != nil {
		return nil, err
	}
	attempted, failed, _ := t.counts()
	return []metric{
		{"e2e.evals_per_s", "evals/s", p.lib.evalsPerSecond()},
		{"e2e.job_p50_ms", "ms", p50},
		{"e2e.job_p99_ms", "ms", p99},
		{"e2e.max_jobs_per_s", "jobs/s", p.svc.closedJobsPerSecond()},
		{"e2e.read_p50_ms", "ms", median(append(append([]float64(nil), p.svc.reads.statsMs...), p.svc.reads.metricsMs...))},
		{"e2e.fail_ratio", "ratio", float64(failed) / float64(max(attempted, 1))},
		{"e2e.evals_per_cpu_s", "evals/cpu-s", p.lib.evalsPerCPUSecond()},
		{"e2e.jobs_per_cpu_s", "jobs/cpu-s", p.svc.closedJobsPerCPUSecond()},
		{"host.loop_ref_ops_per_cpu_s", "ops/cpu-s", median(p.lib.refRates)},
		{"host.null_ref_pairs_per_cpu_s", "pairs/cpu-s", median(p.svc.refRates)},
	}, nil
}

func runEndToEnd(ctx context.Context, w io.Writer, cfg runConfig, t *tally) ([]metric, error) {
	e, err := setup(ctx, cfg, nil)
	if err != nil {
		return nil, err
	}
	defer e.close()
	p, err := e.measure(ctx, cfg, cfg.seconds, 0, nil, t)
	if err != nil {
		return nil, err
	}
	if err := checkFingerprint(ctx, w, cfg.seed, t); err != nil {
		return nil, err
	}
	p.print(w)
	return e.endToEnd(w, cfg.wl, p, t)
}

func (p passResult) print(w io.Writer) {
	fmt.Fprintf(w, "library: %d solves in %d passes, %d evals, solve wall %.3fs (evolve %.3fs)\n",
		p.lib.solves, p.lib.passes, p.lib.evals, p.lib.wall.Seconds(), p.lib.evolve.Seconds())
	fmt.Fprintf(w, "  per pass (min q1 median q3 max): evals/s %s, evals/cpu-s %s, evals/ref-s %s\n",
		spread(p.lib.passRates), spread(p.lib.passCPURates), spread(p.lib.passRefRates))
	tail, _ := tailPercentile(len(p.svc.jobMs))
	fmt.Fprintf(w, "service: %d open-loop jobs (the whole run's tail p%g has >=10 beyond), %d reads, closed loop %d jobs\n",
		len(p.svc.jobMs), tail, len(p.svc.reads.statsMs)+len(p.svc.reads.metricsMs), p.svc.closedJobs)
	fmt.Fprintf(w, "  per closed-loop chunk (min q1 median q3 max): jobs/s %s, jobs/cpu-s %s, jobs/ref-s %s\n",
		spread(p.svc.closedRates), spread(p.svc.closedCPURates), spread(p.svc.closedRefRates))
	fmt.Fprintf(w, "  reference chunks (min q1 median q3 max): library ops/cpu-s %s, service pairs/cpu-s %s\n",
		spread(p.lib.refRates), spread(p.svc.refRates))
}

// spread formats the minimum, quartiles and maximum of xs.
func spread(xs []float64) string {
	asc := sorted(xs)
	if len(asc) == 0 {
		return "none"
	}
	return fmt.Sprintf("%.4g %.4g %.4g %.4g %.4g", asc[0], percentile(asc, 25), percentile(asc, 50), percentile(asc, 75), asc[len(asc)-1])
}
