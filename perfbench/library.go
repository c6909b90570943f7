package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"time"

	"gridsched/internal/core"
	"gridsched/internal/etc"
	"gridsched/internal/heuristics"
	"gridsched/internal/rng"
	"gridsched/internal/schedule"
	"gridsched/internal/solver"
)

func minMin(in *etc.Instance) *schedule.Schedule { return heuristics.MinMin(in) }

// solveRecord is one client-timed Solve.
type solveRecord struct {
	inst      int
	wall      time.Duration
	res       *solver.Result
	overshoot int64
}

// libResult aggregates a library phase.
type libResult struct {
	passes  int
	solves  int
	evals   int64
	wall    time.Duration // Σ client-timed Solve wall, init included
	evolve  time.Duration // Σ Result.Duration
	ratios  map[int][]float64
	records []solveRecord
	// passRates and passCPURates are each pass's Σ evaluations over
	// Σ Solve wall time and over the process CPU time the pass used;
	// passRefRates and passSolveRefRates are its evaluations and Solves
	// per reference second (ref.go), and refRates the reference's rate
	// in each pass.
	passRates         []float64
	passCPURates      []float64
	passRefRates      []float64
	passSolveRefRates []float64
	refRates          []float64
}

// evalsPerSecond is the median over passes of Σ Result.Evaluations /
// Σ client-timed Solve wall: every pass does the same work, and the
// median keeps one disturbed pass from moving the figure.
func (l libResult) evalsPerSecond() float64 { return median(l.passRates) }

// evalsPerCPUSecond is the same median over CPU time. Time the host
// takes a vCPU away (steal) is not CPU time, but what a CPU second buys
// still changes with the co-tenants' load.
func (l libResult) evalsPerCPUSecond() float64 { return median(l.passCPURates) }

// evalsPerRefSecond is the median over passes of evaluations per
// reference second, which that load does not move.
func (l libResult) evalsPerRefSecond() float64 { return median(l.passRefRates) }

// solvesPerRefSecond is the median over passes of Solves per reference
// second.
func (l libResult) solvesPerRefSecond() float64 { return median(l.passSolveRefRates) }

// makespanRatio is the geometric mean over instances of each instance's
// geometric-mean best/Min-min makespan ratio.
func (l libResult) makespanRatio() float64 {
	var per []float64
	for _, rs := range l.ratios {
		per = append(per, geomean(rs))
	}
	return geomean(per)
}

// pacgaParams is Table 1 (16×16, L5, best-2, tpx, move, H2LL×10,
// replace-if-better) at the given thread count.
func pacgaParams(threads int, seed uint64) core.Params {
	p := core.DefaultParams()
	p.Threads = threads
	p.Seed = seed
	return p
}

const (
	// minPassSeconds is the least time a library pass should take.
	minPassSeconds = 0.5
	// refEvery is the solving time between two reference chunks.
	refEvery = 100 * time.Millisecond
)

// runLibrary solves the instances in seeded orders, whole rounds over
// all of them, in passes until seconds have passed, so every run weighs
// the instances equally. A pass is as many rounds as take about
// minPassSeconds, judged from the warm-up Solve. insts[warm] is solved
// once, untimed, before the first pass. A reference chunk follows a
// Solve once refEvery of solving has passed since the last, and the last
// Solve of every pass. The pass's CPU time is the sum of its Solves'.
func runLibrary(ctx context.Context, insts []*etc.Instance, refs []*schedule.Schedule, warm int, evals int64, threads int, r *rng.Rand, seconds float64, tr *tracer, t *tally) (libResult, error) {
	res := libResult{ratios: make(map[int][]float64)}
	// One untimed Solve grows the heap to its working size, so the
	// first timed pass does not pay page faults later passes skip.
	rec, probs := solveChecked(ctx, insts[warm], refs[warm], evals, threads, r.Uint64(), nil, 0)
	t.op(probs...)
	if rec.res == nil {
		return res, ctx.Err()
	}
	rounds := max(1, int(math.Ceil(minPassSeconds/(rec.wall.Seconds()*float64(len(insts))))))
	runtime.GC()
	ref := newLoopMeter(threads)
	start := time.Now()
	for len(res.passRates) == 0 || time.Since(start).Seconds() < seconds {
		var passEvals int64
		var passWall, passCPU, sinceRef time.Duration
		passSolves := 0
		order := roundsOrder(r, len(insts), rounds)
		for k, i := range order {
			if err := ctx.Err(); err != nil {
				return res, err
			}
			cpu0 := cpuTime()
			rec, probs := solveChecked(ctx, insts[i], refs[i], evals, threads, r.Uint64(), tr, uint64(len(res.records)+1))
			passCPU += cpuTime() - cpu0
			if sinceRef += rec.wall; sinceRef >= refEvery || k == len(order)-1 {
				ref.sample()
				sinceRef = 0
			}
			t.op(probs...)
			if rec.res == nil {
				continue
			}
			rec.inst = i
			res.records = append(res.records, rec)
			res.solves++
			res.evals += rec.res.Evaluations
			res.wall += rec.wall
			passWall += rec.wall
			passEvals += rec.res.Evaluations
			passSolves++
			res.evolve += rec.res.Duration
			res.ratios[i] = append(res.ratios[i], rec.res.BestFitness/refs[i].Makespan())
		}
		cpu := passCPU.Seconds()
		refRate := ref.window()
		res.passRates = append(res.passRates, float64(passEvals)/passWall.Seconds())
		res.passCPURates = append(res.passCPURates, float64(passEvals)/cpu)
		res.passRefRates = append(res.passRefRates, ref.perRefSecond(float64(passEvals)/cpu, refRate))
		res.passSolveRefRates = append(res.passSolveRefRates, ref.perRefSecond(float64(passSolves)/cpu, refRate))
	}
	res.passes = len(res.passRates)
	res.refRates = ref.rates
	return res, nil
}

// roundsOrder is rounds seeded permutations of n instances, one after
// another.
func roundsOrder(r *rng.Rand, n, rounds int) []int {
	var out []int
	for k := 0; k < rounds; k++ {
		out = append(out, r.Perm(n)...)
	}
	return out
}

// solveChecked runs one PA-CGA Solve and checks its output.
func solveChecked(ctx context.Context, in *etc.Instance, ref *schedule.Schedule, evals int64, threads int, seed uint64, tr *tracer, traceID uint64) (solveRecord, []problem) {
	t0 := time.Now()
	res, err := core.PACGA{Params: pacgaParams(threads, seed)}.Solve(ctx, in, solver.Budget{MaxEvaluations: evals})
	t1 := time.Now()
	if err != nil {
		return solveRecord{}, []problem{opFail("solve %s: %v", in.Name, err)}
	}
	if tr != nil {
		root := tr.add(traceID, -1, "solve", t0, t1)
		split := t1.Add(-res.Duration)
		tr.add(traceID, root, "core.init", t0, split)
		tr.add(traceID, root, "core.evolve", split, t1)
	}
	rec := solveRecord{wall: t1.Sub(t0), res: res, overshoot: res.Evaluations - evals}
	return rec, checkSolve(in.Name, res, evals, threads, ref.Makespan())
}

// checkSolve verifies one Solve result:
//   - the best schedule passes Validate;
//   - BestFitness equals Best.Makespan();
//   - Evaluations ≤ budget + threads − 1: each worker checks the budget
//     before a breeding step and then counts one evaluation, so every
//     worker but the one that reaches the bound may finish one step;
//   - BestFitness ≤ the Min-min makespan: the population is seeded with
//     Min-min and replacement only installs better offspring.
func checkSolve(name string, res *solver.Result, evals int64, threads int, minmin float64) []problem {
	if res.Best == nil {
		return []problem{checkFail("%s: no best schedule", name)}
	}
	var probs []problem
	if err := res.Best.Validate(); err != nil {
		probs = append(probs, checkFail("%s: best schedule invalid: %v", name, err))
	}
	if mk := res.Best.Makespan(); res.BestFitness != mk {
		probs = append(probs, checkFail("%s: BestFitness %v != Best.Makespan() %v", name, res.BestFitness, mk))
	}
	if limit := evals + int64(threads) - 1; res.Evaluations > limit {
		probs = append(probs, checkFail("%s: %d evaluations exceed budget %d + slack %d", name, res.Evaluations, evals, threads-1))
	}
	if res.BestFitness > minmin {
		probs = append(probs, checkFail("%s: best makespan %v worse than its Min-min seed %v", name, res.BestFitness, minmin))
	}
	return probs
}

// fingerprintEvals is the budget of the reproducibility check's runs.
const fingerprintEvals = 5000

// fingerprint is a 1-thread PA-CGA result's identity: the best
// makespan's bits and an FNV-1a hash of its assignment.
func fingerprint(ctx context.Context, in *etc.Instance, seed uint64) (uint64, uint64, error) {
	res, err := core.PACGA{Params: pacgaParams(1, seed)}.Solve(ctx, in, solver.Budget{MaxEvaluations: fingerprintEvals})
	if err != nil {
		return 0, 0, err
	}
	h := fnv.New64a()
	var b [8]byte
	for _, m := range res.Best.S {
		binary.LittleEndian.PutUint64(b[:], uint64(m))
		h.Write(b[:])
	}
	return math.Float64bits(res.BestFitness), h.Sum64(), nil
}

// checkFingerprint runs the 1-thread fingerprint twice on the first
// paper instance and checks the two are identical.
func checkFingerprint(ctx context.Context, w io.Writer, seed uint64, t *tally) error {
	in, err := etc.GenerateByName(etc.AllClasses()[0].Name())
	if err != nil {
		return err
	}
	var got [2][2]uint64
	for i := range got {
		bits, sum, err := fingerprint(ctx, in, seed)
		if err != nil {
			t.op(opFail("fingerprint solve: %v", err))
			return nil
		}
		got[i] = [2]uint64{bits, sum}
	}
	fmt.Fprintf(w, "fingerprint %s seed=%d threads=1 evals=%d: makespan bits %016x assignment fnv %016x\n",
		in.Name, seed, fingerprintEvals, got[0][0], got[0][1])
	if got[0] != got[1] {
		t.op(checkFail("1-thread PA-CGA fingerprint differs run to run: %x vs %x", got[0], got[1]))
	} else {
		t.op()
	}
	return nil
}
