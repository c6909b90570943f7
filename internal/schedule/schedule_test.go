package schedule

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"gridsched/internal/etc"
	"gridsched/internal/rng"
)

func testInstance(t *testing.T, tasks, machines int, seed uint64) *etc.Instance {
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

func TestNewEmpty(t *testing.T) {
	in := testInstance(t, 10, 4, 1)
	s := New(in)
	if s.Complete() {
		t.Fatal("empty schedule reports complete")
	}
	for _, m := range s.S {
		if m != Unassigned {
			t.Fatal("new schedule has assigned tasks")
		}
	}
	for m, c := range s.CT {
		if c != in.Ready[m] {
			t.Fatalf("CT[%d] = %v, want ready %v", m, c, in.Ready[m])
		}
	}
}

func TestAssignUpdatesCT(t *testing.T) {
	in := testInstance(t, 10, 4, 2)
	s := New(in)
	s.Assign(3, 2)
	if s.S[3] != 2 {
		t.Fatal("Assign did not record machine")
	}
	if got, want := s.CT[2], in.ETC(3, 2); !approxEqual(got, want) {
		t.Fatalf("CT[2] = %v, want %v", got, want)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAssignPanicsOnDouble(t *testing.T) {
	in := testInstance(t, 4, 2, 3)
	s := New(in)
	s.Assign(0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("double Assign did not panic")
		}
	}()
	s.Assign(0, 1)
}

func TestMoveIncremental(t *testing.T) {
	in := testInstance(t, 20, 5, 4)
	r := rng.New(9)
	s := NewRandom(in, r)
	for i := 0; i < 500; i++ {
		task := r.Intn(in.T)
		m := r.Intn(in.M)
		s.Move(task, m)
		if s.S[task] != m {
			t.Fatal("Move did not record assignment")
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("CT invariant broken after moves: %v", err)
	}
}

func TestMoveToSameMachineNoop(t *testing.T) {
	in := testInstance(t, 5, 3, 5)
	s := NewRandom(in, rng.New(1))
	before := append([]float64(nil), s.CT...)
	s.Move(2, s.S[2])
	for m := range before {
		if before[m] != s.CT[m] {
			t.Fatal("Move to same machine changed CT")
		}
	}
}

func TestUnassign(t *testing.T) {
	in := testInstance(t, 6, 3, 6)
	s := NewRandom(in, rng.New(2))
	m := s.S[4]
	s.Unassign(4)
	if s.S[4] != Unassigned {
		t.Fatal("Unassign did not clear task")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	s.Unassign(4) // second call is a no-op
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	_ = m
}

func TestSetAssignment(t *testing.T) {
	in := testInstance(t, 6, 3, 7)
	s := NewRandom(in, rng.New(3))
	s.SetAssignment(1, Unassigned)
	if s.S[1] != Unassigned {
		t.Fatal("SetAssignment(Unassigned) did not unassign")
	}
	s.SetAssignment(1, 2)
	if s.S[1] != 2 {
		t.Fatal("SetAssignment did not assign")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMakespanMatchesFull(t *testing.T) {
	in := testInstance(t, 64, 8, 8)
	s := NewRandom(in, rng.New(4))
	if got, want := s.Makespan(), s.MakespanFull(); !approxEqual(got, want) {
		t.Fatalf("incremental makespan %v, full %v", got, want)
	}
}

func TestMakespanMachine(t *testing.T) {
	in := testInstance(t, 30, 6, 9)
	s := NewRandom(in, rng.New(5))
	m, ct := s.MakespanMachine()
	if ct != s.Makespan() {
		t.Fatalf("MakespanMachine ct %v != makespan %v", ct, s.Makespan())
	}
	if s.CT[m] != ct {
		t.Fatal("MakespanMachine returned wrong machine")
	}

	// An exact CT tie between two machines goes to the lower index:
	// ETC 4 on machines 1 and 3, the rest 1.
	tie, err := etc.New("tie", 2, 4, []float64{1, 4, 1, 1, 1, 1, 1, 4})
	if err != nil {
		t.Fatal(err)
	}
	s = New(tie)
	s.Assign(0, 1)
	s.Assign(1, 3)
	if m, ct := s.MakespanMachine(); m != 1 || ct != 4 {
		t.Fatalf("tied MakespanMachine = (%d, %v), want (1, 4)", m, ct)
	}
	s.Move(0, 0)
	if m, ct := s.MakespanMachine(); m != 3 || ct != 4 {
		t.Fatalf("after breaking the tie MakespanMachine = (%d, %v), want (3, 4)", m, ct)
	}
}

func TestMakespanIncludesReady(t *testing.T) {
	in := testInstance(t, 4, 3, 10)
	withReady, err := in.WithReady([]float64{0, 1e12, 0})
	if err != nil {
		t.Fatal(err)
	}
	s := New(withReady)
	if s.Makespan() < 1e12 {
		t.Fatal("makespan ignores ready times")
	}
}

func TestFlowtimeSPT(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tasks  int
		etc    []float64 // task-major, tasks × len(ready)
		ready  []float64
		assign []int
		want   float64
	}{{
		// 1 machine, ETC 2 and 3: SPT order finishes at 2 and 5.
		name:   "one-machine",
		tasks:  2,
		etc:    []float64{2, 3},
		ready:  []float64{0},
		assign: []int{0, 0},
		want:   7,
	}, {
		// Machine 0 (ready 1) holds tasks 0, 1 and 4 with ETC 4, 1
		// and 2: SPT order 1, 2, 4 finishes at 2, 4 and 8 (task order
		// would give 5, 6 and 8). Machine 1 (ready 0) finishes task 2
		// at 3, machine 2 (ready 5) task 3 at 7. Task 5 is unassigned
		// and does not count: 14 + 3 + 7.
		name:  "three-machines-ready-unassigned",
		tasks: 6,
		etc: []float64{
			4, 9, 9,
			1, 9, 9,
			9, 3, 9,
			9, 9, 2,
			2, 9, 9,
			7, 7, 7,
		},
		ready:  []float64{1, 0, 5},
		assign: []int{0, 0, 1, 2, 0, Unassigned},
		want:   24,
	}} {
		t.Run(tc.name, func(t *testing.T) {
			in, err := etc.New("tiny", tc.tasks, len(tc.ready), tc.etc)
			if err != nil {
				t.Fatal(err)
			}
			if in, err = in.WithReady(tc.ready); err != nil {
				t.Fatal(err)
			}
			s := New(in)
			for task, m := range tc.assign {
				if m != Unassigned {
					s.Assign(task, m)
				}
			}
			if got := s.Flowtime(); !approxEqual(got, tc.want) {
				t.Fatalf("flowtime %v, want %v", got, tc.want)
			}
		})
	}
}

func TestFlowtimeWithReady(t *testing.T) {
	in, err := etc.New("tiny", 1, 1, []float64{2})
	if err != nil {
		t.Fatal(err)
	}
	in2, err := in.WithReady([]float64{10})
	if err != nil {
		t.Fatal(err)
	}
	s := New(in2)
	s.Assign(0, 0)
	if got := s.Flowtime(); !approxEqual(got, 12) {
		t.Fatalf("flowtime %v, want 12", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	in := testInstance(t, 10, 4, 11)
	s := NewRandom(in, rng.New(6))
	c := s.Clone()
	c.Move(0, (s.S[0]+1)%in.M)
	if s.S[0] == c.S[0] {
		t.Fatal("clone shares assignment storage")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCopyFrom(t *testing.T) {
	in := testInstance(t, 10, 4, 12)
	a := NewRandom(in, rng.New(7))
	b := NewRandom(in, rng.New(8))
	b.CopyFrom(a)
	for i := range a.S {
		if a.S[i] != b.S[i] {
			t.Fatal("CopyFrom did not copy S")
		}
	}
	if b.Makespan() != a.Makespan() {
		t.Fatal("CopyFrom did not copy CT")
	}
}

// TestCopyFromSelf pins that copying a schedule onto itself leaves every
// field as it was. Crossover recombines in place through
// Cross(child, child, p2, r), whose first step is child.CopyFrom(child).
func TestCopyFromSelf(t *testing.T) {
	in := testInstance(t, 40, 6, 21)
	s := NewRandom(in, rng.New(3))
	s.Move(0, (s.S[0]+1)%in.M) // give the compensation words something to hold
	want := s.Clone()
	s.CopyFrom(s)
	if !slices.Equal(s.S, want.S) || !slices.Equal(s.CT, want.CT) || !slices.Equal(s.ctLo, want.ctLo) {
		t.Fatal("CopyFrom(self) changed the schedule")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCopyFromPanicsAcrossInstances(t *testing.T) {
	a := NewRandom(testInstance(t, 5, 2, 13), rng.New(1))
	b := NewRandom(testInstance(t, 5, 2, 14), rng.New(1))
	defer func() {
		if recover() == nil {
			t.Fatal("CopyFrom across instances did not panic")
		}
	}()
	a.CopyFrom(b)
}

func TestHammingDistance(t *testing.T) {
	in := testInstance(t, 8, 4, 15)
	a := NewRandom(in, rng.New(9))
	b := a.Clone()
	if a.HammingDistance(b) != 0 {
		t.Fatal("identical schedules have nonzero distance")
	}
	b.Move(0, (b.S[0]+1)%in.M)
	b.Move(5, (b.S[5]+1)%in.M)
	if d := a.HammingDistance(b); d != 2 {
		t.Fatalf("distance %d, want 2", d)
	}
	if a.HammingDistance(b) != b.HammingDistance(a) {
		t.Fatal("distance not symmetric")
	}
}

func TestTasksOnAndCount(t *testing.T) {
	in := testInstance(t, 12, 3, 16)
	s := New(in)
	for task := 0; task < in.T; task++ {
		s.Assign(task, task%3)
	}
	got := s.TasksOn(1, nil)
	if len(got) != s.CountOn(1) || len(got) != 4 {
		t.Fatalf("TasksOn(1) = %v", got)
	}
	for _, task := range got {
		if task%3 != 1 {
			t.Fatalf("TasksOn returned wrong task %d", task)
		}
	}
}

func TestRandomTaskOn(t *testing.T) {
	in := testInstance(t, 12, 3, 17)
	s := New(in)
	for task := 0; task < in.T; task++ {
		s.Assign(task, task%3)
	}
	r := rng.New(10)
	counts := map[int]int{}
	for i := 0; i < 4000; i++ {
		task := s.RandomTaskOn(2, r)
		if task%3 != 2 {
			t.Fatalf("RandomTaskOn returned task %d not on machine 2", task)
		}
		counts[task]++
	}
	// Four tasks on machine 2; each should get ~1000 draws.
	for task, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("RandomTaskOn biased: task %d drawn %d/4000", task, c)
		}
	}
	if got := s.RandomTaskOn(2, r); got%3 != 2 {
		t.Fatalf("RandomTaskOn(2) after the sampling loop returned task %d, which is not on machine 2", got)
	}
	empty := New(in)
	if got := empty.RandomTaskOn(0, r); got != -1 {
		t.Fatalf("RandomTaskOn on empty machine = %d, want -1", got)
	}
}

func TestMachinesByCompletion(t *testing.T) {
	in := testInstance(t, 40, 6, 18)
	s := NewRandom(in, rng.New(11))
	order := s.MachinesByCompletion(nil)
	if len(order) != in.M {
		t.Fatalf("order length %d", len(order))
	}
	for i := 1; i < len(order); i++ {
		if s.CT[order[i-1]] > s.CT[order[i]] {
			t.Fatal("MachinesByCompletion not ascending")
		}
	}
	// Reuse buffer path.
	buf := make([]int, 0, in.M)
	order2 := s.MachinesByCompletion(buf)
	for i := range order {
		if order[i] != order2[i] {
			t.Fatal("buffered call disagrees")
		}
	}
}

func TestFromAssignment(t *testing.T) {
	in := testInstance(t, 6, 3, 19)
	s, err := FromAssignment(in, []int{0, 1, 2, 0, Unassigned, 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Complete() {
		t.Fatal("partial assignment reports complete")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := FromAssignment(in, []int{0}); err == nil {
		t.Fatal("short vector accepted")
	}
	if _, err := FromAssignment(in, []int{0, 1, 2, 0, 9, 1}); err == nil {
		t.Fatal("invalid machine accepted")
	}
}

// Property: any sequence of moves preserves the CT invariant and keeps
// incremental makespan equal to the full recomputation.
func TestPropertyIncrementalInvariant(t *testing.T) {
	in := testInstance(t, 32, 5, 20)
	f := func(seed uint64, ops []uint16) bool {
		r := rng.New(seed)
		s := NewRandom(in, r)
		for _, op := range ops {
			task := int(op>>4) % in.T
			m := int(op&0xF) % in.M
			s.Move(task, m)
		}
		return s.Validate() == nil && approxEqual(s.Makespan(), s.MakespanFull())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: RecomputeCT is idempotent and agrees with incremental CT.
func TestPropertyRecompute(t *testing.T) {
	in := testInstance(t, 24, 4, 21)
	f := func(seed uint64) bool {
		s := NewRandom(in, rng.New(seed))
		before := append([]float64(nil), s.CT...)
		s.RecomputeCT()
		for m := range before {
			if !approxEqual(before[m], s.CT[m]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestUtilization(t *testing.T) {
	// 2 machines, ETC: task0=4 on m0, task1=2 on m1 -> CT = [4, 2],
	// makespan 4, busy 6, utilization 6/(2*4) = 0.75.
	in, err := etc.New("u", 2, 2, []float64{4, 100, 100, 2})
	if err != nil {
		t.Fatal(err)
	}
	s := New(in)
	s.Assign(0, 0)
	s.Assign(1, 1)
	if got := s.Utilization(); !approxEqual(got, 0.75) {
		t.Fatalf("utilization %v, want 0.75", got)
	}
	if got := New(in).Utilization(); got != 0 {
		t.Fatalf("empty schedule utilization %v", got)
	}
}

func TestUtilizationPerfectBalance(t *testing.T) {
	in, err := etc.New("u", 2, 2, []float64{3, 100, 100, 3})
	if err != nil {
		t.Fatal(err)
	}
	s := New(in)
	s.Assign(0, 0)
	s.Assign(1, 1)
	if got := s.Utilization(); !approxEqual(got, 1) {
		t.Fatalf("balanced utilization %v, want 1", got)
	}
	if got := s.ImbalanceCV(); got != 0 {
		t.Fatalf("balanced imbalance %v, want 0", got)
	}
}

func TestImbalanceCV(t *testing.T) {
	// CT = [4, 2]: mean 3, population std 1, CV 1/3.
	in, err := etc.New("u", 2, 2, []float64{4, 100, 100, 2})
	if err != nil {
		t.Fatal(err)
	}
	s := New(in)
	s.Assign(0, 0)
	s.Assign(1, 1)
	if got := s.ImbalanceCV(); !approxEqual(got, 1.0/3) {
		t.Fatalf("imbalance %v, want 1/3", got)
	}
	if got := New(in).ImbalanceCV(); got != 0 {
		t.Fatalf("empty imbalance %v", got)
	}
}

func TestMakespanEmptySchedule(t *testing.T) {
	in := testInstance(t, 4, 3, 22)
	s := New(in)
	if got := s.Makespan(); got != 0 {
		t.Fatalf("empty schedule makespan %v, want 0 (zero ready times)", got)
	}
	if math.IsInf(s.Makespan(), 0) {
		t.Fatal("makespan inf")
	}
}

func BenchmarkMoveIncremental(b *testing.B) {
	in, _ := etc.Generate(etc.GenSpec{Class: etc.Class{Consistency: etc.Inconsistent, TaskHet: etc.High, MachineHet: etc.High}, Seed: 1})
	s := NewRandom(in, rng.New(1))
	r := rng.New(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Move(r.Intn(in.T), r.Intn(in.M))
	}
}

func BenchmarkMakespanIncremental(b *testing.B) {
	in, _ := etc.Generate(etc.GenSpec{Class: etc.Class{Consistency: etc.Inconsistent, TaskHet: etc.High, MachineHet: etc.High}, Seed: 1})
	s := NewRandom(in, rng.New(1))
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = s.Makespan()
	}
	_ = sink
}

func BenchmarkMakespanFullRecompute(b *testing.B) {
	in, _ := etc.Generate(etc.GenSpec{Class: etc.Class{Consistency: etc.Inconsistent, TaskHet: etc.High, MachineHet: etc.High}, Seed: 1})
	s := NewRandom(in, rng.New(1))
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = s.MakespanFull()
	}
	_ = sink
}
