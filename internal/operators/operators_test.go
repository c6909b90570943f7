package operators

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"gridsched/internal/etc"
	"gridsched/internal/heuristics"
	"gridsched/internal/rng"
	"gridsched/internal/schedule"
)

func testInstance(t testing.TB, tasks, machines int, seed uint64) *etc.Instance {
	t.Helper()
	in, err := etc.Generate(etc.GenSpec{
		Class: etc.Class{Consistency: etc.Inconsistent, TaskHet: etc.High, MachineHet: etc.High},
		Tasks: tasks, Machines: machines, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// --- Selection ---

func TestBestTwoPicksTwoLowest(t *testing.T) {
	cands := []Candidate{
		{Cell: 0, Fitness: 5},
		{Cell: 1, Fitness: 1},
		{Cell: 2, Fitness: 3},
		{Cell: 3, Fitness: 2},
		{Cell: 4, Fitness: 9},
	}
	p1, p2 := BestTwo{}.Select(cands, nil)
	if cands[p1].Fitness != 1 || cands[p2].Fitness != 2 {
		t.Fatalf("BestTwo chose %v and %v", cands[p1], cands[p2])
	}
}

func TestBestTwoBestIsFirst(t *testing.T) {
	cands := []Candidate{{Cell: 0, Fitness: 1}, {Cell: 1, Fitness: 2}, {Cell: 2, Fitness: 3}}
	p1, p2 := BestTwo{}.Select(cands, nil)
	if p1 != 0 || p2 != 1 {
		t.Fatalf("got %d,%d want 0,1", p1, p2)
	}
}

func TestBestTwoSingleCandidate(t *testing.T) {
	p1, p2 := BestTwo{}.Select([]Candidate{{Cell: 7, Fitness: 4}}, nil)
	if p1 != 0 || p2 != 0 {
		t.Fatalf("single candidate gave %d,%d", p1, p2)
	}
}

func TestBestTwoAllEqual(t *testing.T) {
	cands := []Candidate{{Fitness: 2}, {Fitness: 2}, {Fitness: 2}}
	p1, p2 := BestTwo{}.Select(cands, nil)
	if p1 == p2 {
		t.Fatal("BestTwo returned the same candidate twice despite alternatives")
	}
}

func TestBestTwoPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on empty candidates")
		}
	}()
	BestTwo{}.Select(nil, nil)
}

// Property: BestTwo returns distinct indices whenever it has >=2
// candidates, and p1's fitness is the minimum.
func TestBestTwoProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		cands := make([]Candidate, len(raw))
		for i, v := range raw {
			cands[i] = Candidate{Cell: i, Fitness: float64(v)}
		}
		p1, p2 := BestTwo{}.Select(cands, nil)
		if p1 == p2 {
			return false
		}
		for _, c := range cands {
			if c.Fitness < cands[p1].Fitness {
				return false
			}
		}
		for i, c := range cands {
			if i != p1 && c.Fitness < cands[p2].Fitness {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryTournamentInRange(t *testing.T) {
	r := rng.New(1)
	cands := []Candidate{{Fitness: 3}, {Fitness: 1}, {Fitness: 2}}
	for i := 0; i < 200; i++ {
		p1, p2 := BinaryTournament{}.Select(cands, r)
		if p1 < 0 || p1 >= 3 || p2 < 0 || p2 >= 3 {
			t.Fatalf("tournament out of range: %d,%d", p1, p2)
		}
	}
}

func TestBinaryTournamentPrefersBetter(t *testing.T) {
	r := rng.New(2)
	cands := []Candidate{{Fitness: 100}, {Fitness: 1}}
	wins := 0
	const n = 2000
	for i := 0; i < n; i++ {
		p1, _ := BinaryTournament{}.Select(cands, r)
		if p1 == 1 {
			wins++
		}
	}
	// Winner of a pair containing the better candidate is the better one;
	// P(best selected) = 3/4.
	if float64(wins)/n < 0.68 || float64(wins)/n > 0.82 {
		t.Fatalf("tournament selected best %d/%d times, want ~75%%", wins, n)
	}
}

// --- Crossover ---

func crossoverSetup(t testing.TB, seed uint64) (*schedule.Schedule, *schedule.Schedule, *schedule.Schedule, *rng.Rand) {
	in := testInstance(t, 64, 8, seed)
	r := rng.New(seed + 100)
	p1 := schedule.NewRandom(in, r)
	p2 := schedule.NewRandom(in, r)
	child := schedule.New(in)
	return p1, p2, child, r
}

func assertChildGenesFromParents(t *testing.T, child, p1, p2 *schedule.Schedule) {
	t.Helper()
	for task := range child.S {
		if child.S[task] != p1.S[task] && child.S[task] != p2.S[task] {
			t.Fatalf("task %d assigned to %d, in neither parent (%d, %d)",
				task, child.S[task], p1.S[task], p2.S[task])
		}
	}
}

func TestOnePointStructure(t *testing.T) {
	p1, p2, child, r := crossoverSetup(t, 1)
	OnePoint{}.Cross(child, p1, p2, r)
	assertChildGenesFromParents(t, child, p1, p2)
	if err := child.Validate(); err != nil {
		t.Fatalf("opx broke CT invariant: %v", err)
	}
	// One-point: a prefix from p1, a suffix from p2. Find the last index
	// taken from p1-only and the first from p2-only; prefix must precede.
	lastP1, firstP2 := -1, len(child.S)
	for task := range child.S {
		fromP1 := child.S[task] == p1.S[task]
		fromP2 := child.S[task] == p2.S[task]
		if fromP1 && !fromP2 && task > lastP1 {
			lastP1 = task
		}
		if fromP2 && !fromP1 && task < firstP2 {
			firstP2 = task
		}
	}
	if lastP1 >= firstP2 {
		t.Fatalf("opx mixed segments: lastP1=%d firstP2=%d", lastP1, firstP2)
	}
}

func TestTwoPointStructure(t *testing.T) {
	p1, p2, child, r := crossoverSetup(t, 2)
	TwoPoint{}.Cross(child, p1, p2, r)
	assertChildGenesFromParents(t, child, p1, p2)
	if err := child.Validate(); err != nil {
		t.Fatalf("tpx broke CT invariant: %v", err)
	}
	// Two-point: p2-exclusive genes must form one contiguous window.
	first, last := -1, -1
	for task := range child.S {
		if child.S[task] == p2.S[task] && child.S[task] != p1.S[task] {
			if first < 0 {
				first = task
			}
			last = task
		}
	}
	if first >= 0 {
		for task := first; task <= last; task++ {
			if child.S[task] != p2.S[task] && child.S[task] == p1.S[task] && p1.S[task] != p2.S[task] {
				t.Fatalf("tpx window not contiguous at task %d", task)
			}
		}
	}
}

func TestUniformStructure(t *testing.T) {
	p1, p2, child, r := crossoverSetup(t, 3)
	Uniform{}.Cross(child, p1, p2, r)
	assertChildGenesFromParents(t, child, p1, p2)
	if err := child.Validate(); err != nil {
		t.Fatalf("ux broke CT invariant: %v", err)
	}
	// With 64 tasks the chance of taking everything from one parent is
	// 2^-64; require both parents contributed.
	fromP1, fromP2 := 0, 0
	for task := range child.S {
		if child.S[task] == p1.S[task] && child.S[task] != p2.S[task] {
			fromP1++
		}
		if child.S[task] == p2.S[task] && child.S[task] != p1.S[task] {
			fromP2++
		}
	}
	if fromP1 == 0 || fromP2 == 0 {
		t.Fatalf("uniform crossover one-sided: %d vs %d exclusive genes", fromP1, fromP2)
	}
}

// Property: every crossover preserves the CT invariant and produces
// complete schedules with genes from the parents only.
func TestCrossoverInvariantProperty(t *testing.T) {
	in := testInstance(t, 48, 6, 4)
	ops := []Crossover{OnePoint{}, TwoPoint{}, Uniform{}}
	f := func(seed uint64, which uint8) bool {
		r := rng.New(seed)
		p1 := schedule.NewRandom(in, r)
		p2 := schedule.NewRandom(in, r)
		child := schedule.New(in)
		op := ops[int(which)%len(ops)]
		op.Cross(child, p1, p2, r)
		if !child.Complete() || child.Validate() != nil {
			return false
		}
		for task := range child.S {
			if child.S[task] != p1.S[task] && child.S[task] != p2.S[task] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCrossoverIdenticalParents(t *testing.T) {
	in := testInstance(t, 20, 4, 5)
	r := rng.New(9)
	p := schedule.NewRandom(in, r)
	child := schedule.New(in)
	for _, op := range []Crossover{OnePoint{}, TwoPoint{}, Uniform{}} {
		op.Cross(child, p, p, r)
		if child.HammingDistance(p) != 0 {
			t.Fatalf("%s with identical parents produced a different child", op.Name())
		}
	}
}

func TestParseCrossover(t *testing.T) {
	for _, name := range []string{"opx", "tpx", "ux", "one-point", "two-point", "uniform"} {
		if _, err := ParseCrossover(name); err != nil {
			t.Fatalf("ParseCrossover(%q): %v", name, err)
		}
	}
	if _, err := ParseCrossover("threepoint"); err == nil {
		t.Fatal("accepted bogus crossover")
	}
}

// --- Mutation ---

func TestMoveMutationChangesAtMostOneTask(t *testing.T) {
	in := testInstance(t, 30, 5, 6)
	r := rng.New(10)
	s := schedule.NewRandom(in, r)
	before := s.Clone()
	Move{}.Mutate(s, r)
	if d := s.HammingDistance(before); d > 1 {
		t.Fatalf("move mutation changed %d tasks", d)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSwapMutation(t *testing.T) {
	in := testInstance(t, 30, 5, 7)
	r := rng.New(11)
	s := schedule.NewRandom(in, r)
	before := s.Clone()
	Swap{}.Mutate(s, r)
	if d := s.HammingDistance(before); d > 2 {
		t.Fatalf("swap mutation changed %d tasks", d)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Machine multiset preserved: counts per machine may change only by
	// the swap; total assignments constant.
	total := 0
	for m := 0; m < in.M; m++ {
		total += s.CountOn(m)
	}
	if total != in.T {
		t.Fatal("swap lost a task")
	}
}

func TestRebalanceMutationNeverIncreasesLoadOnWorst(t *testing.T) {
	in := testInstance(t, 40, 6, 8)
	r := rng.New(12)
	for trial := 0; trial < 50; trial++ {
		s := schedule.NewRandom(in, r)
		worstBefore, ctBefore := s.MakespanMachine()
		Rebalance{}.Mutate(s, r)
		if s.CT[worstBefore] > ctBefore {
			t.Fatal("rebalance increased the load of the former worst machine")
		}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestParseMutation(t *testing.T) {
	for _, name := range []string{"move", "swap", "rebalance"} {
		if _, err := ParseMutation(name); err != nil {
			t.Fatalf("ParseMutation(%q): %v", name, err)
		}
	}
	if _, err := ParseMutation("invert"); err == nil {
		t.Fatal("accepted bogus mutation")
	}
}

// --- H2LL ---

func TestH2LLNeverWorsensMakespan(t *testing.T) {
	in := testInstance(t, 128, 16, 9)
	r := rng.New(13)
	for trial := 0; trial < 30; trial++ {
		s := schedule.NewRandom(in, r)
		before := s.Makespan()
		H2LL{Iterations: 10}.Apply(s, r)
		after := s.Makespan()
		if after > before+1e-9 {
			t.Fatalf("H2LL worsened makespan: %v -> %v", before, after)
		}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestH2LLImprovesUnbalancedSchedule(t *testing.T) {
	in := testInstance(t, 128, 16, 10)
	s := schedule.New(in)
	for task := 0; task < in.T; task++ {
		s.Assign(task, 0) // everything piled on machine 0
	}
	r := rng.New(14)
	before := s.Makespan()
	moves := H2LL{Iterations: 10}.Apply(s, r)
	if moves == 0 {
		t.Fatal("H2LL made no moves on a maximally unbalanced schedule")
	}
	if s.Makespan() >= before {
		t.Fatalf("H2LL failed to improve: %v -> %v", before, s.Makespan())
	}
}

func TestH2LLZeroIterationsNoop(t *testing.T) {
	in := testInstance(t, 32, 4, 11)
	r := rng.New(15)
	s := schedule.NewRandom(in, r)
	before := s.Clone()
	if moves := (H2LL{Iterations: 0}).Apply(s, r); moves != 0 {
		t.Fatal("0-iteration H2LL moved tasks")
	}
	if s.HammingDistance(before) != 0 {
		t.Fatal("0-iteration H2LL changed the schedule")
	}
}

func TestH2LLCandidateClamp(t *testing.T) {
	// 2 machines: candidate set must clamp to 1 (never the worst itself).
	in := testInstance(t, 16, 2, 12)
	r := rng.New(16)
	s := schedule.NewRandom(in, r)
	H2LL{Iterations: 5, Candidates: 100}.Apply(s, r)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// 1 machine: no candidates, must be a no-op and not panic.
	in1, err := etc.New("one", 4, 1, []float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	s1 := schedule.NewRandom(in1, r)
	if moves := (H2LL{Iterations: 5}).Apply(s1, r); moves != 0 {
		t.Fatal("H2LL moved tasks with a single machine")
	}
}

func TestH2LLMovesComeOffWorstMachine(t *testing.T) {
	in := testInstance(t, 64, 8, 13)
	r := rng.New(17)
	s := schedule.NewRandom(in, r)
	worst, _ := s.MakespanMachine()
	countBefore := s.CountOn(worst)
	moves := H2LL{Iterations: 1}.Apply(s, r)
	if moves == 1 && s.CountOn(worst) != countBefore-1 {
		t.Fatal("H2LL's move did not come off the makespan machine")
	}
}

// specSampleTaskOn is Schedule.SampleTaskOn's RNG contract written out:
// up to 2·M r.Uint64() calls, each split into its high then its low 32
// bits x; x picks task k = ⌊x·T/2^32⌋ unless the low word of x·T is
// below 2^32 mod T (Lemire's exact rejection), and the first such task
// on machine m is the draw. It returns -1 when all of them miss.
func specSampleTaskOn(s *schedule.Schedule, m int, r *rng.Rand) int {
	n := uint64(len(s.S))
	for i := 0; i < 2*s.Inst.M; i++ {
		v := r.Uint64()
		for _, x := range [2]uint64{v >> 32, v & (1<<32 - 1)} {
			if p := x * n; p%(1<<32) >= (1<<32)%n && s.S[p>>32] == m {
				return int(p >> 32)
			}
		}
	}
	return -1
}

// specRandomTaskOn is Schedule.RandomTaskOn's RNG contract, which is
// also H2LL's for the first draw on a machine in a call:
// specSampleTaskOn, and when it misses, m's tasks in ascending order
// and one Intn over them, or -1 without a draw for an empty machine.
// fellBack reports the second branch.
func specRandomTaskOn(s *schedule.Schedule, m int, r *rng.Rand) (task int, fellBack bool) {
	if task := specSampleTaskOn(s, m, r); task >= 0 {
		return task, false
	}
	tasks := s.TasksOn(m, nil)
	if len(tasks) == 0 {
		return -1, true
	}
	return tasks[r.Intn(len(tasks))], true
}

// TestH2LLDrawContract pins H2LL's RNG contract. One iteration draws
// its task off the makespan machine by specRandomTaskOn and consumes
// nothing else: the "stacked" schedule piles tasks on machine 0 with
// unit costs, so every candidate accepts the move, and the moved task
// must be the drawn one. Once a sample has missed on a machine, later
// draws on it in the same call take one Intn over its listed tasks and
// no sample: in the "stalled" schedule the makespan machine holds one
// task that no candidate accepts, so a 20-iteration call draws on it 20
// times, and the next call starts with a sample again.
func TestH2LLDrawContract(t *testing.T) {
	const tasks, machines = 40, 4
	row := make([]float64, tasks*machines)
	for i := range row {
		row[i] = 1
	}
	in, err := etc.New("stacked", tasks, machines, row)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(10)
	for trial := 0; trial < 200; trial++ {
		s := schedule.New(in)
		for task := 0; task < tasks; task++ {
			if task%4 == 0 || r.Bool(0.3) {
				s.Assign(task, 0) // at least 10 tasks: machine 0 is the makespan machine
			} else {
				s.Assign(task, 1+r.Intn(machines-1))
			}
		}
		before := s.Clone()
		twin := *r
		k, _ := specRandomTaskOn(before, 0, &twin)
		if moves := (H2LL{Iterations: 1}).Apply(s, r); moves != 1 {
			t.Fatalf("trial %d: %d moves, want 1", trial, moves)
		}
		if *r != twin {
			t.Fatalf("trial %d: Apply consumed a different RNG stream than the specified draw", trial)
		}
		if d := s.HammingDistance(before); d != 1 || s.S[k] == 0 {
			t.Fatalf("trial %d: drew task %d, but it is on machine %d and %d genes changed", trial, k, s.S[k], d)
		}
	}

	// Task 0 costs 1000 on machine 0 and 10^6 elsewhere; the other 511
	// tasks cost 1 and spread over machines 1–15.
	const sTasks, sMachines = 512, 16
	row = make([]float64, sTasks*sMachines)
	for i := range row {
		row[i] = 1
	}
	for m := 1; m < sMachines; m++ {
		row[m] = 1e6
	}
	row[0] = 1000
	stalled, err := etc.New("stalled", sTasks, sMachines, row)
	if err != nil {
		t.Fatal(err)
	}
	s := schedule.New(stalled)
	s.Assign(0, 0)
	for task := 1; task < sTasks; task++ {
		s.Assign(task, 1+task%(sMachines-1))
	}
	misses := 0
	for call := 0; call < 50; call++ {
		twin := *r
		listed := false
		for it := 0; it < 20; it++ {
			if !listed {
				if specSampleTaskOn(s, 0, &twin) >= 0 {
					continue
				}
				listed = true
				misses++
			}
			twin.Intn(1)
		}
		if moves := (H2LL{Iterations: 20}).Apply(s, r); moves != 0 {
			t.Fatalf("call %d: %d moves on the stalled schedule", call, moves)
		}
		if *r != twin {
			t.Fatalf("call %d: Apply consumed a different RNG stream than 20 specified draws", call)
		}
	}
	if misses == 0 {
		t.Fatal("no sample missed, so the listed draws went untested")
	}
}

// requireUniform fails unless the draws counted in count spread
// uniformly over tasks: a chi-square test at p ≥ 0.001, its p-value by
// the Wilson–Hilferty cube-root normal approximation (accurate to the
// third digit from 2 degrees of freedom). It returns the statistic.
func requireUniform(t *testing.T, count map[int]int, tasks []int, draws int) float64 {
	t.Helper()
	exp := float64(draws) / float64(len(tasks))
	stat := 0.0
	for _, task := range tasks {
		d := float64(count[task]) - exp
		stat += d * d / exp
	}
	if len(tasks) > 1 {
		k := float64(len(tasks) - 1)
		z := (math.Cbrt(stat/k) - (1 - 2/(9*k))) / math.Sqrt(2/(9*k))
		if p := math.Erfc(z/math.Sqrt2) / 2; p < 0.001 {
			t.Errorf("chi-square %.1f over %d tasks: p = %.2g", stat, len(tasks), p)
		}
	}
	return stat
}

// TestH2LLDrawUniform checks RandomTaskOn, H2LL's first draw on a
// machine, against specRandomTaskOn draw by draw (same task, same RNG
// state after) and for uniformity by chi-square on a skewed 512×16
// schedule: machine 0 holds 64 tasks (the sample hits), machine 2 holds
// 3 tasks (most draws reach the exact fallback) and machine 1 holds 1
// task (the fallback nearly always runs, and must return it). H2LL's
// later draws on a listed machine get the same chi-square. An empty
// makespan machine on the ready-only instance must stop H2LL at its
// first iteration, after exactly one sample's 2·M Uint64s.
func TestH2LLDrawUniform(t *testing.T) {
	in := testInstance(t, 512, 16, 21)
	r := rng.New(22)
	s := schedule.New(in)
	held := make([][]int, in.M)
	for task := range s.S {
		m := 3 + r.Intn(in.M-3)
		switch {
		case task%8 == 0:
			m = 0
		case task == 5:
			m = 1
		case task == 7 || task == 300 || task == 511:
			m = 2
		}
		s.Assign(task, m)
		held[m] = append(held[m], task)
	}
	for _, c := range []struct {
		name  string
		mac   int
		draws int
	}{{"many", 0, 64 * 200}, {"few", 2, 3 * 2000}, {"one", 1, 2000}} {
		t.Run(c.name, func(t *testing.T) {
			count := map[int]int{}
			fellBack := 0
			for i := 0; i < c.draws; i++ {
				twin := *r
				got := s.RandomTaskOn(c.mac, r)
				want, fell := specRandomTaskOn(s, c.mac, &twin)
				if got != want || *r != twin {
					t.Fatalf("draw %d: RandomTaskOn = %d, specified draw %d (same RNG state after: %v)", i, got, want, *r == twin)
				}
				if s.S[got] != c.mac {
					t.Fatalf("draw %d: task %d is on machine %d", i, got, s.S[got])
				}
				count[got]++
				if fell {
					fellBack++
				}
			}
			n := len(held[c.mac])
			stat := requireUniform(t, count, held[c.mac], c.draws)
			t.Logf("%d tasks, %d draws, chi-square %.1f, %d exact fallbacks", n, c.draws, stat, fellBack)
			// Each of the 4·M candidates hits with probability n/T, so
			// the fallback count is binomial; allow 4 standard deviations.
			miss := math.Pow(1-float64(n)/float64(in.T), float64(4*in.M))
			mean := miss * float64(c.draws)
			if d := math.Abs(float64(fellBack) - mean); d > 4*math.Sqrt(mean*(1-miss))+1 {
				t.Errorf("%d exact fallbacks in %d draws, want about %.0f", fellBack, c.draws, mean)
			}
		})
	}

	// Once a sample has missed in an H2LL call, draws on that machine
	// take its listed tasks.
	t.Run("listed", func(t *testing.T) {
		d := taskDraw{mac: 0, tasks: s.TasksOn(0, nil)}
		count := map[int]int{}
		const draws = 64 * 200
		for i := 0; i < draws; i++ {
			task, k := d.pick(s, 0, r)
			if k < 0 || s.S[task] != 0 {
				t.Fatalf("draw %d: task %d of machine %d at list index %d", i, task, s.S[task], k)
			}
			count[task]++
		}
		requireUniform(t, count, held[0], draws)
	})

	t.Run("empty-makespan-machine", func(t *testing.T) {
		tied := smallIntInstance(t, 96, 12, 3, 1)
		ready := make([]float64, tied.M)
		ready[5] = 400
		readyOnly, err := tied.WithReady(ready)
		if err != nil {
			t.Fatal(err)
		}
		s := schedule.New(readyOnly)
		for task := range s.S {
			s.Assign(task, task%4) // machines 0–3; 5 stays empty
		}
		if w, _ := s.MakespanMachine(); w != 5 {
			t.Fatalf("makespan machine %d, want the empty machine 5", w)
		}
		before, twin := s.Clone(), *r
		for i := 0; i < 2*readyOnly.M; i++ {
			twin.Uint64()
		}
		if moves := (H2LL{Iterations: 10}).Apply(s, r); moves != 0 || s.HammingDistance(before) != 0 {
			t.Fatalf("%d moves on an empty makespan machine", moves)
		}
		if *r != twin {
			t.Fatal("H2LL did not stop after one draw of 2·M Uint64s on the empty makespan machine")
		}
	})
}

// Property: H2LL preserves completeness, the CT invariant, and
// monotonically non-increasing makespan for any iteration count.
func TestH2LLProperty(t *testing.T) {
	in := testInstance(t, 64, 8, 14)
	f := func(seed uint64, iters uint8) bool {
		r := rng.New(seed)
		s := schedule.NewRandom(in, r)
		before := s.Makespan()
		H2LL{Iterations: int(iters % 20)}.Apply(s, r)
		return s.Complete() && s.Validate() == nil && s.Makespan() <= before+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestH2LLRespectsMakespanBound(t *testing.T) {
	// The accepted move's new completion time must be strictly below the
	// old makespan (Algorithm 4 line 7: new_score < best_score).
	in := testInstance(t, 64, 8, 15)
	r := rng.New(18)
	for trial := 0; trial < 40; trial++ {
		s := schedule.NewRandom(in, r)
		before := s.Makespan()
		moved := H2LL{Iterations: 1}.Apply(s, r)
		if moved == 1 && s.Makespan() > before {
			t.Fatal("H2LL accepted a move that raised the makespan")
		}
	}
}

func TestH2LLName(t *testing.T) {
	if (H2LL{Iterations: 5}).Name() != "h2ll/5" {
		t.Fatalf("name %q", H2LL{Iterations: 5}.Name())
	}
}

func TestH2LLConvergesTowardBalance(t *testing.T) {
	// Repeated application should drive the makespan close to a local
	// optimum: applying it many more times must yield diminishing change.
	in := testInstance(t, 256, 16, 17)
	r := rng.New(20)
	s := schedule.NewRandom(in, r)
	H2LL{Iterations: 200}.Apply(s, r)
	mid := s.Makespan()
	H2LL{Iterations: 200}.Apply(s, r)
	end := s.Makespan()
	if end > mid {
		t.Fatal("makespan increased under repeated H2LL")
	}
	if math.IsNaN(end) || math.IsInf(end, 0) {
		t.Fatal("makespan degenerate")
	}
}

func BenchmarkH2LL5(b *testing.B) {
	in := testInstance(b, 512, 16, 1)
	r := rng.New(1)
	s := schedule.NewRandom(in, r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		H2LL{Iterations: 5}.Apply(s, r)
	}
}

// BenchmarkH2LLApply measures one H2LL pass as breeding calls it: on a
// fresh child each time, so the per-call setup (the machine order)
// counts as it does per offspring. BenchmarkH2LL5 re-applies to one
// schedule, whose order stops changing as it converges. The children
// cycle through a ring of 64 distinct schedules, each the previous one
// after a move mutation and a short H2LL pass, like offspring of
// neighbouring parents; each call copies its ring entry into a work
// schedule first, as breeding copies parent 1 into the child.
//
// The -it64 rows are the long sweeps of the h2ll solver: 64 iterations
// per call on a ring grown from Min-min by the solver's kick of 8 random
// moves and a 64-iteration sweep. Their makespan machines can hold few
// tasks and the sweeps run to a stall, so they pin the cost of
// RandomTaskOn's exact fallback scan.
func BenchmarkH2LLApply(b *testing.B) {
	for _, sh := range []struct {
		tasks, machines, iters int
		minmin                 bool
	}{
		{512, 16, 5, false},
		{8192, 256, 5, false},
		{512, 16, 64, true},
		{8192, 256, 64, true},
	} {
		name := fmt.Sprintf("%dx%d", sh.tasks, sh.machines)
		if sh.minmin {
			name += fmt.Sprintf("-it%d", sh.iters)
		}
		b.Run(name, func(b *testing.B) {
			in := testInstance(b, sh.tasks, sh.machines, 1)
			r := rng.New(1)
			h := H2LL{Iterations: sh.iters}
			ring := make([]*schedule.Schedule, 64)
			var prev *schedule.Schedule
			if sh.minmin {
				prev = heuristics.MinMin(in)
			} else {
				prev = schedule.NewRandom(in, r)
				H2LL{Iterations: 200}.Apply(prev, r)
			}
			for i := range ring {
				c := prev.Clone()
				if sh.minmin {
					for k := 0; k < 8; k++ {
						c.Move(r.Intn(in.T), r.Intn(in.M))
					}
				} else {
					Move{}.Mutate(c, r)
				}
				H2LL{Iterations: sh.iters}.Apply(c, r)
				ring[i], prev = c, c
			}
			work := schedule.New(in)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				work.CopyFrom(ring[i%len(ring)])
				h.Apply(work, r)
			}
		})
	}
}

func BenchmarkOnePoint(b *testing.B) {
	in := testInstance(b, 512, 16, 1)
	r := rng.New(1)
	p1 := schedule.NewRandom(in, r)
	p2 := schedule.NewRandom(in, r)
	child := schedule.New(in)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		OnePoint{}.Cross(child, p1, p2, r)
	}
}

func BenchmarkTwoPoint(b *testing.B) {
	in := testInstance(b, 512, 16, 1)
	r := rng.New(1)
	p1 := schedule.NewRandom(in, r)
	p2 := schedule.NewRandom(in, r)
	child := schedule.New(in)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TwoPoint{}.Cross(child, p1, p2, r)
	}
}
