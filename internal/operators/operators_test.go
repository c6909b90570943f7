package operators

import (
	"math"
	"testing"
	"testing/quick"

	"gridsched/internal/etc"
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

func TestCenterPlusBest(t *testing.T) {
	cands := []Candidate{{Cell: 9, Fitness: 50}, {Fitness: 3}, {Fitness: 1}, {Fitness: 2}}
	p1, p2 := CenterPlusBest{}.Select(cands, nil)
	if p1 != 0 {
		t.Fatal("center not selected as first parent")
	}
	if cands[p2].Fitness != 1 {
		t.Fatalf("second parent fitness %v, want 1", cands[p2].Fitness)
	}
	p1, p2 = CenterPlusBest{}.Select(cands[:1], nil)
	if p1 != 0 || p2 != 0 {
		t.Fatal("single-candidate CenterPlusBest broken")
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

// --- Replacement ---

func TestReplacementPolicies(t *testing.T) {
	cases := []struct {
		p        Replacement
		cur, off float64
		want     bool
	}{
		{ReplaceIfBetter, 10, 9, true},
		{ReplaceIfBetter, 10, 10, false},
		{ReplaceIfBetter, 10, 11, false},
		{ReplaceIfBetterOrEqual, 10, 10, true},
		{ReplaceIfBetterOrEqual, 10, 11, false},
		{ReplaceAlways, 10, 99, true},
	}
	for _, c := range cases {
		if got := c.p.Accepts(c.cur, c.off); got != c.want {
			t.Fatalf("%v.Accepts(%v, %v) = %v, want %v", c.p, c.cur, c.off, got, c.want)
		}
	}
}

func TestParseReplacement(t *testing.T) {
	for _, p := range []Replacement{ReplaceIfBetter, ReplaceIfBetterOrEqual, ReplaceAlways} {
		got, err := ParseReplacement(p.String())
		if err != nil || got != p {
			t.Fatalf("round trip %v failed: %v %v", p, got, err)
		}
	}
	if _, err := ParseReplacement("sometimes"); err == nil {
		t.Fatal("accepted bogus replacement")
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

// TestH2LLOneDrawPerIteration pins H2LL's RNG contract directly: one
// iteration draws its task off the makespan machine with exactly one
// Intn(n), where n is that machine's task count, and takes the draw's
// k-th task in ascending order, so the moved task is uniform over the n.
// The schedule stacks all n tasks on machine 0 with unit costs, so every
// candidate accepts the move.
func TestH2LLOneDrawPerIteration(t *testing.T) {
	const n, machines = 4, 4
	row := make([]float64, n*machines)
	for i := range row {
		row[i] = 1
	}
	in, err := etc.New("stacked", n, machines, row)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(10)
	counts := make([]int, n)
	for trial := 0; trial < 1000*n; trial++ {
		s := schedule.New(in)
		for task := 0; task < n; task++ {
			s.Assign(task, 0)
		}
		twin := *r
		k := twin.Intn(n)
		if moves := (H2LL{Iterations: 1}).Apply(s, r); moves != 1 {
			t.Fatalf("trial %d: %d moves, want 1", trial, moves)
		}
		if *r != twin {
			t.Fatalf("trial %d: Apply consumed a different RNG stream than one Intn(%d)", trial, n)
		}
		if got := s.TasksOn(0, nil); len(got) != n-1 {
			t.Fatalf("trial %d: machine 0 keeps tasks %v", trial, got)
		}
		if s.S[k] == 0 {
			t.Fatalf("trial %d: task %d drawn but not moved", trial, k)
		}
		counts[k]++
	}
	for task, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("H2LL draw biased: task %d moved %d/%d times", task, c, 1000*n)
		}
	}
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

func TestNullSearch(t *testing.T) {
	in := testInstance(t, 8, 2, 16)
	r := rng.New(19)
	s := schedule.NewRandom(in, r)
	if (NullSearch{}).Apply(s, r) != 0 {
		t.Fatal("NullSearch did something")
	}
	if (NullSearch{}).Name() != "none" {
		t.Fatal("NullSearch name")
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
