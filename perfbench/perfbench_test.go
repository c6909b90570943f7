package main

import (
	"bytes"
	"context"
	"testing"
	"time"

	"gridsched/internal/etc"
	"gridsched/internal/heuristics"
	"gridsched/internal/rng"
	"gridsched/internal/solver"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 99.9, true},
		{9999, 99, true},
		{1000, 99, true},
		{999, 90, true},
		{100, 90, true},
		{40, 75, true},
		{20, 50, true},
		{19, 0, false},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
		if ok && beyond(tc.n, got) < 10 {
			t.Errorf("n=%d: p%v has %d samples beyond it", tc.n, got, beyond(tc.n, got))
		}
	}
	asc := make([]float64, 1000)
	for i := range asc {
		asc[i] = float64(i + 1)
	}
	if got := percentile(asc, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := beyond(1000, 99); got != 10 {
		t.Errorf("beyond(1000, 99) = %d, want 10", got)
	}
	if _, err := (svcResult{jobMs: asc[:999]}).jobPercentile(99); err == nil {
		t.Error("p99 of 999 samples accepted with only 9 beyond it")
	}
}

// A server that stalls must raise the measured latency of every request
// due during the stall, also when the generator itself is held up
// (maxInFlight 1), because latency runs from the scheduled send time.
func TestOpenLoopStallRaisesLatency(t *testing.T) {
	const n, gap = 100, 2 * time.Millisecond
	sched := make([]time.Duration, n)
	for i := range sched {
		sched[i] = time.Duration(i) * gap
	}
	stallFrom, stallTo := 20*gap, 70*gap
	for _, inflight := range []int{n, 1} {
		start := time.Now()
		lat, late := openLoop(context.Background(), sched, inflight, func(i int, due time.Time) {
			if at := time.Since(start); at >= stallFrom && at < stallTo {
				time.Sleep(stallTo - at)
			}
		})
		// Request 30 was due 80 ms before the stall ended.
		if lat[30] < 60*time.Millisecond {
			t.Errorf("maxInFlight=%d: request due during the stall measured %v, want >= 60ms", inflight, lat[30])
		}
		if inflight == 1 && late[31] < 50*time.Millisecond {
			t.Errorf("maxInFlight=1: request queued behind the stall sent %v late, want >= 50ms", late[31])
		}
		if lat[5] >= lat[30] {
			t.Errorf("maxInFlight=%d: request before the stall (%v) not faster than one during it (%v)", inflight, lat[5], lat[30])
		}
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add(1, -1, "job", at(0), at(100))
	c1 := tr.add(1, root, "a", at(10), at(30))
	tr.add(1, root, "b", at(20), at(50))  // overlaps a
	tr.add(1, root, "c", at(90), at(120)) // runs past the root
	tr.add(1, c1, "d", at(15), at(25))
	self := selfTimes(tr.snapshot())
	want := []time.Duration{50, 10, 30, 30, 10}
	for i, w := range want {
		if self[i] != w*time.Millisecond {
			t.Errorf("span %d self time %v, want %v", i, self[i], w*time.Millisecond)
		}
	}
	var none *tracer
	if id := none.add(1, -1, "x", at(0), at(1)); id != -1 || none.snapshot() != nil {
		t.Error("a nil tracer recorded a span")
	}
}

func TestSeedDeterminism(t *testing.T) {
	in, err := newSvcInputs()
	if err != nil {
		t.Fatal(err)
	}
	draw := func(seed uint64) ([]time.Duration, []jobReq) {
		r := rng.New(seed)
		sched := arrivals(r.Split(1), 1000, 2)
		return sched, drawJobs(r.Split(2), in, len(sched))
	}
	s1, j1 := draw(7)
	s2, j2 := draw(7)
	s3, j3 := draw(8)
	if len(s1) != len(s2) || len(j1) != len(j2) {
		t.Fatalf("same seed, different sizes: %d/%d arrivals", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i] != s2[i] || j1[i].kind != j2[i].kind || j1[i].name != j2[i].name || !bytes.Equal(j1[i].body, j2[i].body) {
			t.Fatalf("same seed differs at arrival %d", i)
		}
	}
	if len(s1) < 1800 || len(s1) > 2200 {
		t.Errorf("%d arrivals at 1000/s over 2 s", len(s1))
	}
	differ := len(s1) != len(s3)
	for i := 0; !differ && i < len(s1); i++ {
		differ = s1[i] != s3[i] || j1[i].name != j3[i].name
	}
	if !differ {
		t.Error("seeds 7 and 8 gave the same arrivals and mix")
	}
	var count [numKinds]int
	for _, j := range drawJobs(rng.New(9), in, 20000) {
		count[j.kind]++
	}
	for k, c := range count {
		if got := 100 * float64(c) / 20000; got < float64(kindWeights[k])-2 || got > float64(kindWeights[k])+2 {
			t.Errorf("%s drawn %.1f%%, want %d%%", kindNames[k], got, kindWeights[k])
		}
	}
}

func TestOutputChecksCatchWrongResults(t *testing.T) {
	in, err := etc.GenerateByName("u_i_hilo.0@64x8")
	if err != nil {
		t.Fatal(err)
	}
	s := heuristics.MinMin(in)
	wire := jobWire{State: "done"}
	wire.Result = &struct {
		Makespan   float64 `json:"makespan"`
		Assignment []int   `json:"assignment"`
	}{s.Makespan(), s.S}
	if probs := checkJobResult(in, "j", wire); len(probs) != 0 {
		t.Fatalf("correct result rejected: %v", probs)
	}
	wire.Result.Makespan += 1
	if probs := checkJobResult(in, "j", wire); len(probs) != 1 || !probs[0].check {
		t.Errorf("makespan off by one accepted: %v", probs)
	}

	res := &solver.Result{Best: s, BestFitness: s.Makespan(), Evaluations: 101}
	if probs := checkSolve(in.Name, res, 100, 2, s.Makespan()); len(probs) != 0 {
		t.Errorf("one evaluation of slack with 2 threads rejected: %v", probs)
	}
	res.Evaluations = 102
	if probs := checkSolve(in.Name, res, 100, 2, s.Makespan()); len(probs) != 1 {
		t.Errorf("two evaluations over budget with 2 threads accepted: %v", probs)
	}
}

func TestRefMeterWindows(t *testing.T) {
	chunks := []struct {
		ops float64
		cpu time.Duration
	}{{100, time.Second}, {300, time.Second}, {50, time.Second}}
	k := 0
	m := newRefMeter(1000, func() (float64, time.Duration) {
		c := chunks[k]
		k++
		return c.ops, c.cpu
	})
	m.sample()
	m.sample()
	if got := m.window(); got != 200 {
		t.Errorf("window over 400 ops in 2 CPU s = %v, want 200", got)
	}
	m.sample()
	if got := m.window(); got != 50 {
		t.Errorf("second window = %v, want 50: samples leaked across windows", got)
	}
	// A host running the reference at half the nominal rate doubles a
	// rate per CPU second measured beside it.
	if got := m.perRefSecond(10, 500); got != 20 {
		t.Errorf("perRefSecond(10, 500) = %v, want 20", got)
	}
}
