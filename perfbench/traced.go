package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"gridsched/internal/etc"
	"gridsched/internal/operators"
	"gridsched/internal/rng"
	"gridsched/internal/schedule"
)

// runTraced measures the workload twice at half the run's seconds each,
// untraced and then with spans, probes each layer's public functions on
// the workload's own instances, and prints the breakdown tables.
func runTraced(ctx context.Context, w io.Writer, cfg runConfig, t *tally) ([]metric, *tracer, error) {
	tr := newTracer()
	e, err := setup(ctx, cfg, tr)
	if err != nil {
		return nil, nil, err
	}
	defer e.close()
	half := cfg.seconds / 2
	plain, err := e.measure(ctx, cfg, half, 1, nil, t)
	if err != nil {
		return nil, tr, err
	}
	traced, err := e.measure(ctx, cfg, half, 2, tr, t)
	if err != nil {
		return nil, tr, err
	}
	if err := checkFingerprint(ctx, w, cfg.seed, t); err != nil {
		return nil, tr, err
	}
	// The single-threaded baseline pass behind core.scaling_eff (the
	// Fig. 4 shape): one Solve per instance at 1 thread.
	single, err := runLibrary(ctx, e.insts, e.refs, e.warm, cfg.wl.lib.evals, 1, rng.New(cfg.seed).Split(3), 0, nil, t)
	if err != nil {
		return nil, tr, err
	}
	lib := traced.lib
	svc := traced.svc
	// Min-min is timed again now that the heap is warm: the reference
	// run in set-up was each instance's first touch.
	minminMs := make([]float64, len(e.insts))
	for i, in := range e.insts {
		t0 := time.Now()
		probeSink += minMin(in).Makespan()
		t1 := time.Now()
		tr.add(0, -1, "heuristics.minmin", t0, t1)
		minminMs[i] = ms(t1.Sub(t0))
	}
	probes := probeLibrary(e.insts, e.refs, rng.New(cfg.seed).Split(4), tr)
	handlerUs, err := e.svc.probeSubmitHandler(ctx, t)
	if err != nil {
		return nil, tr, err
	}
	getNs := e.svc.probeStoreGet()

	fmt.Fprintln(w, "\nuntraced pass:")
	plain.print(w)
	fmt.Fprintln(w, "traced pass:")
	traced.print(w)
	tracedP50, err := svc.jobPercentile(50)
	if err != nil {
		return nil, tr, err
	}
	plainP50, err := plain.svc.jobPercentile(50)
	if err != nil {
		return nil, tr, err
	}
	wall, err := plain.wallClock(t)
	if err != nil {
		return nil, tr, err
	}
	printLibraryBreakdown(w, median(e.setupS), minminMs, lib)
	residual := printServiceBreakdown(w, svc, tracedP50)
	// Overheads are signed so that positive means tracing cost time.
	evalsOverhead := 100 * (plain.lib.evalsPerRefSecond() - lib.evalsPerRefSecond()) / plain.lib.evalsPerRefSecond()
	jobOverhead := 100 * (tracedP50 - plainP50) / plainP50
	fmt.Fprintf(w, "\ntracing overhead (traced vs untraced pass): evals_per_ref_s %+.2f%% (%.0f vs %.0f), job_p50_ms %+.2f%% (%.4f vs %.4f)\n",
		evalsOverhead, lib.evalsPerRefSecond(), plain.lib.evalsPerRefSecond(), jobOverhead, tracedP50, plainP50)
	fmt.Fprintln(w, "\nspans (self time = duration minus the time its children cover):")
	printSpanTable(w, tr.snapshot())

	var (
		initMs, gensCV, overshoot []float64
		lsMoves, evals            int64
	)
	for _, rec := range lib.records {
		initMs = append(initMs, ms(rec.wall-rec.res.Duration))
		perThread := make([]float64, len(rec.res.PerThread))
		for i, g := range rec.res.PerThread {
			perThread[i] = float64(g)
		}
		gensCV = append(gensCV, cv(perThread))
		overshoot = append(overshoot, float64(rec.overshoot))
		lsMoves += rec.res.LocalSearchMoves
		evals += rec.res.Evaluations
	}
	evolveRate := float64(lib.evals) / lib.evolve.Seconds()
	singleRate := float64(single.evals) / single.evolve.Seconds()
	var planeBytes float64
	for _, in := range e.insts {
		planeBytes += float64(in.T) * float64(in.M) * 8 * 2
	}

	var queueMs, runMs, notifyUs, submitMs, resultMs, resultBytes []float64
	for _, s := range svc.samples {
		if s.decoded.IsZero() {
			continue
		}
		queueMs = append(queueMs, ms(s.job.StartedAt.Sub(s.job.SubmittedAt)))
		runMs = append(runMs, ms(s.job.FinishedAt.Sub(s.job.StartedAt)))
		notifyUs = append(notifyUs, us(s.waited.Sub(s.job.FinishedAt)))
		submitMs = append(submitMs, ms(s.accepted.Sub(s.sent)))
		resultMs = append(resultMs, ms(s.decoded.Sub(s.getStart)))
		resultBytes = append(resultBytes, float64(s.resultBytes))
	}
	st := svc.stats
	lookups := float64(st.CacheHits + st.CacheJoins + st.CacheMisses)
	var stolen, finished int64
	peak := 0
	for _, sh := range st.Shards {
		stolen += sh.Stolen
		finished += sh.Finished
		peak = max(peak, sh.QueueDepthPeak)
	}
	queueSorted := sorted(queueMs)
	return append([]metric{
		{"etc.generate_ms", "ms", median(e.genMs) / float64(len(e.insts))},
		{"etc.plane_bytes", "bytes", planeBytes},
		{"instdb.build_ms", "ms", median(e.buildMs)},
		{"instdb.decode_ms", "ms", median(e.decodeMs)},
		{"instdb.get_ns", "ns", getNs},
		{"heuristics.minmin_ms", "ms", mean(minminMs)},
		{"schedule.move_ns", "ns", probes.moveNs},
		{"schedule.batch_eval_ns", "ns", probes.batchNs},
		{"schedule.batch_eval_bytes", "bytes", probes.batchBytes},
		{"operators.h2ll_us", "us", probes.h2llUs},
		{"operators.h2ll_improve_ratio", "ratio", probes.h2llImprove},
		{"operators.cross_ns", "ns", probes.crossNs},
		{"operators.mutate_ns", "ns", probes.mutateNs},
		{"core.init_ms", "ms", mean(initMs)},
		{"core.evolve_evals_per_s", "evals/s", evolveRate},
		{"core.thread_gens_cv", "ratio", mean(gensCV)},
		{"core.ls_moves_per_eval", "ratio", float64(lsMoves) / float64(evals)},
		{"core.scaling_eff", "ratio", evolveRate / (float64(cfg.threads) * singleRate)},
		{"solver.overshoot_evals", "count", mean(overshoot)},
		{"service.queue_wait_p50_ms", "ms", percentile(queueSorted, 50)},
		{"service.queue_wait_p99_ms", "ms", percentile(queueSorted, 99)},
		{"service.run_ms", "ms", median(runMs)},
		{"service.notify_us", "us", median(notifyUs)},
		{"service.cache_hit_ratio", "ratio", float64(st.CacheHits+st.CacheJoins) / lookups},
		{"service.store_serve_ratio", "ratio", float64(st.StoreServes) / (float64(st.StoreServes) + lookups)},
		{"service.stolen_ratio", "ratio", float64(stolen) / float64(max(finished, 1))},
		{"service.queue_depth_peak", "count", float64(peak)},
		{"http.submit_rtt_ms", "ms", median(submitMs)},
		{"http.result_rtt_ms", "ms", median(resultMs)},
		{"http.submit_handler_us", "us", handlerUs},
		{"http.result_bytes", "bytes", mean(resultBytes)},
		{"http.stats_read_ms", "ms", median(svc.reads.statsMs)},
		{"obs.metrics_scrape_ms", "ms", median(svc.reads.metricsMs)},
		{"obs.metrics_bytes", "bytes", mean(svc.reads.metricsBytes)},
		{"gen.late_p99_ms", "ms", percentile(sorted(svc.lateMs), 99)},
		{"gen.sent", "count", float64(len(svc.jobMs))},
		{"e2e.breakdown_residual_ms", "ms", residual},
		{"trace.overhead_evals_pct", "%", evalsOverhead},
		{"trace.overhead_job_p50_pct", "%", jobOverhead},
	}, wall...), tr, nil
}

// printLibraryBreakdown splits the mean Solve wall time into the
// Min-min seed (timed on its own per instance), the rest of init, and
// evolve.
func printLibraryBreakdown(w io.Writer, setupS float64, minminMs []float64, lib libResult) {
	var wall, evolve, seed float64
	for _, rec := range lib.records {
		wall += ms(rec.wall)
		evolve += ms(rec.res.Duration)
		seed += minminMs[rec.inst]
	}
	n := float64(len(lib.records))
	wall, evolve, seed = wall/n, evolve/n, seed/n
	fmt.Fprintf(w, "\nlibrary breakdown, mean per Solve over %d solves (set-up, once per run: %.4f CPU s median)\n", len(lib.records), setupS)
	fmt.Fprintf(w, "  %-32s %12.4f ms\n", "heuristics.minmin (seed)", seed)
	fmt.Fprintf(w, "  %-32s %12.4f ms\n", "core.init other (wall-evolve-seed)", wall-evolve-seed)
	fmt.Fprintf(w, "  %-32s %12.4f ms\n", "core.evolve (Result.Duration)", evolve)
	fmt.Fprintf(w, "  %-32s %12.4f ms\n", "= Solve wall", wall)
}

// printServiceBreakdown decomposes the open-loop jobs around the median:
// rows are means over the jobs whose latency lies between p45 and p55,
// and the residual, which it returns, is job_p50_ms minus their sum:
// mostly how late the generator sent. It is negative when server-side
// phases overlap the submit round trip (a job can start before its 202
// reaches the client).
func printServiceBreakdown(w io.Writer, svc svcResult, p50 float64) float64 {
	asc := sorted(svc.jobMs)
	lo, hi := percentile(asc, 45), percentile(asc, 55)
	var rows [5]float64
	n := 0
	for i, s := range svc.samples {
		if svc.jobMs[i] < lo || svc.jobMs[i] > hi || s.decoded.IsZero() {
			continue
		}
		n++
		rows[0] += ms(s.accepted.Sub(s.sent))
		rows[1] += ms(s.job.StartedAt.Sub(s.job.SubmittedAt))
		rows[2] += ms(s.job.FinishedAt.Sub(s.job.StartedAt))
		rows[3] += ms(s.waited.Sub(s.job.FinishedAt))
		rows[4] += ms(s.decoded.Sub(s.getStart))
	}
	names := [5]string{"http.submit (RTT)", "service.queue_wait", "service.run", "service.notify", "http.result (RTT)"}
	fmt.Fprintf(w, "\nservice breakdown, mean over %d open-loop jobs between p45 and p55\n", n)
	sum := 0.0
	for i, v := range rows {
		v /= float64(max(n, 1))
		sum += v
		fmt.Fprintf(w, "  %-32s %12.4f ms\n", names[i], v)
	}
	fmt.Fprintf(w, "  %-32s %12.4f ms\n", "sum of rows", sum)
	fmt.Fprintf(w, "  %-32s %12.4f ms\n", "residual (p50 - sum)", p50-sum)
	fmt.Fprintf(w, "  %-32s %12.4f ms\n", "job_p50_ms (traced pass)", p50)
	return p50 - sum
}

// libProbes are kernel timings on the workload's own instances.
type libProbes struct {
	moveNs, batchNs, batchBytes float64
	h2llUs, h2llImprove         float64
	crossNs, mutateNs           float64
}

// probeSink keeps probe results live so the compiler cannot drop the
// measured calls.
var probeSink float64

// probeTime is roughly how long each kernel probe runs per instance.
const probeTime = 50 * time.Millisecond

// probeLibrary times the schedule and operator kernels on every
// instance, starting from its Min-min schedule, and averages per call.
func probeLibrary(insts []*etc.Instance, refs []*schedule.Schedule, r *rng.Rand, tr *tracer) libProbes {
	var p libProbes
	var moveN, batchN, h2llN, crossN, mutN, h2llMoves, h2llIters float64
	var moveT, batchT, h2llT, crossT, mutT time.Duration
	for i, in := range insts {
		s := schedule.NewRandom(in, r)
		type mv struct{ t, m int }
		pairs := make([]mv, 4096)
		for k := range pairs {
			pairs[k] = mv{r.Intn(in.T), r.Intn(in.M)}
		}
		t0 := time.Now()
		k := 0
		for ; k == 0 || time.Since(t0) < probeTime; k += len(pairs) {
			for _, pm := range pairs {
				s.Move(pm.t, pm.m)
				probeSink += s.Makespan()
			}
		}
		moveT += time.Since(t0)
		moveN += float64(k)
		tr.add(0, -1, "schedule.move", t0, time.Now())

		const batch = 16
		var sc schedule.Scratch
		assigns := make([][]int, batch)
		for b := range assigns {
			assigns[b] = schedule.NewRandom(in, r).S
		}
		t0 = time.Now()
		for k = 0; k == 0 || time.Since(t0) < probeTime; k += batch {
			probeSink += sc.BatchEvaluate(in, assigns)[0]
		}
		batchT += time.Since(t0)
		batchN += float64(k)
		tr.add(0, -1, "schedule.batch_eval", t0, time.Now())
		// Per schedule: one int and one ETC value per task, plus the
		// completion-time and compensation lanes per machine.
		p.batchBytes += float64(in.T*16 + in.M*16)

		child, random := schedule.New(in), schedule.NewRandom(in, r)
		h := operators.H2LL{Iterations: 10}
		start := time.Now()
		for time.Since(start) < probeTime || h2llN == 0 {
			child.CopyFrom(refs[i])
			operators.Move{}.Mutate(child, r)
			t0 = time.Now()
			moves := h.Apply(child, r)
			h2llT += time.Since(t0)
			h2llN++
			h2llMoves += float64(moves)
			h2llIters += float64(h.Iterations)
		}
		tr.add(0, -1, "operators.h2ll", start, time.Now())

		t0 = time.Now()
		for k = 0; k == 0 || time.Since(t0) < probeTime; k++ {
			operators.TwoPoint{}.Cross(child, refs[i], random, r)
		}
		crossT += time.Since(t0)
		crossN += float64(k)
		tr.add(0, -1, "operators.cross", t0, time.Now())

		t0 = time.Now()
		for k = 0; k == 0 || time.Since(t0) < probeTime; k++ {
			operators.Move{}.Mutate(child, r)
		}
		mutT += time.Since(t0)
		mutN += float64(k)
		tr.add(0, -1, "operators.mutate", t0, time.Now())
		probeSink += child.Makespan()
	}
	p.moveNs = ns(moveT) / moveN
	p.batchNs = ns(batchT) / batchN
	p.batchBytes /= float64(len(insts))
	p.h2llUs = us(h2llT) / h2llN
	p.h2llImprove = h2llMoves / h2llIters
	p.crossNs = ns(crossT) / crossN
	p.mutateNs = ns(mutT) / mutN
	return p
}
