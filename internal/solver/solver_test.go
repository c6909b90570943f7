package solver

import (
	"context"
	"strings"
	"testing"
	"time"

	"gridsched/internal/etc"
	"gridsched/internal/schedule"
)

func TestBudgetIsZeroAndString(t *testing.T) {
	if !(Budget{}).IsZero() {
		t.Fatal("zero budget not detected")
	}
	b := Budget{MaxDuration: time.Second, MaxEvaluations: 10, MaxGenerations: 3}
	if b.IsZero() {
		t.Fatal("non-zero budget reported zero")
	}
	s := b.String()
	for _, want := range []string{"time=1s", "evals=10", "gens=3"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
	if (Budget{}).String() != "unbounded" {
		t.Fatalf("zero budget String() = %q", (Budget{}).String())
	}
}

func TestEngineEvaluationBudget(t *testing.T) {
	e := NewEngine(nil, Budget{MaxEvaluations: 5})
	if e.EvalsExhausted() {
		t.Fatal("fresh engine exhausted")
	}
	if got := e.RemainingEvals(); got != 5 {
		t.Fatalf("RemainingEvals = %d", got)
	}
	e.AddEvals(3)
	if e.EvalsExhausted() {
		t.Fatal("exhausted below budget")
	}
	if got := e.RemainingEvals(); got != 2 {
		t.Fatalf("RemainingEvals = %d", got)
	}
	e.AddEvals(2)
	if !e.EvalsExhausted() {
		t.Fatal("budget reached but not exhausted")
	}
	if got := e.RemainingEvals(); got != 0 {
		t.Fatalf("RemainingEvals = %d", got)
	}
	if got := e.Evals(); got != 5 {
		t.Fatalf("Evals = %d", got)
	}
	// Unbounded evaluations never exhaust.
	u := NewEngine(nil, Budget{MaxGenerations: 1})
	u.AddEvals(1 << 40)
	if u.EvalsExhausted() || u.RemainingEvals() != -1 {
		t.Fatal("unbounded engine exhausted")
	}
}

func TestEngineGenerations(t *testing.T) {
	e := NewEngine(nil, Budget{MaxGenerations: 2})
	if e.GenerationsDone(1) || e.StopSweep(1) {
		t.Fatal("stopped early")
	}
	if !e.GenerationsDone(2) || !e.StopSweep(2) {
		t.Fatal("generation bound ignored")
	}
	u := NewEngine(nil, Budget{MaxEvaluations: 1})
	if u.GenerationsDone(1 << 40) {
		t.Fatal("unbounded generations done")
	}
}

func TestEngineDeadline(t *testing.T) {
	e := NewEngine(nil, Budget{MaxDuration: 20 * time.Millisecond})
	if e.Expired() {
		t.Fatal("expired immediately")
	}
	time.Sleep(30 * time.Millisecond)
	if !e.Expired() {
		t.Fatal("deadline not noticed")
	}
	if e.Elapsed() < 20*time.Millisecond {
		t.Fatal("Elapsed under deadline")
	}
}

func TestEngineContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	e := NewEngine(ctx, Budget{MaxDuration: time.Hour})
	if e.Expired() {
		t.Fatal("expired before cancel")
	}
	cancel()
	if !e.Expired() {
		t.Fatal("cancellation not noticed")
	}
	// A context deadline tighter than MaxDuration wins.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel2()
	e2 := NewEngine(ctx2, Budget{MaxDuration: time.Hour})
	time.Sleep(20 * time.Millisecond)
	if !e2.Expired() {
		t.Fatal("context deadline ignored")
	}
}

func TestEngineStopStepCoarsePolling(t *testing.T) {
	// With an already-expired deadline, StopStep still lets non-poll
	// steps through (coarse polling) but stops on poll steps.
	e := NewEngine(nil, Budget{MaxDuration: time.Nanosecond})
	time.Sleep(time.Millisecond)
	if e.StopStep(1) {
		t.Fatal("non-poll step polled the deadline")
	}
	if !e.StopStep(0) || !e.StopStep(deadlinePollInterval) {
		t.Fatal("poll step missed the deadline")
	}
	// The evaluation bound is checked on every step regardless.
	e2 := NewEngine(nil, Budget{MaxEvaluations: 1})
	e2.AddEvals(1)
	if !e2.StopStep(1) {
		t.Fatal("eval bound skipped on non-poll step")
	}
}

// stubSolver exercises the registry and the WithSeed helper.
type stubSolver struct {
	name string
	seed uint64
}

func (s stubSolver) Name() string     { return s.name }
func (s stubSolver) Describe() string { return "stub" }
func (s stubSolver) Solve(ctx context.Context, inst *etc.Instance, b Budget) (*Result, error) {
	return &Result{Best: schedule.New(inst)}, nil
}
func (s stubSolver) WithSeed(seed uint64) Solver { s.seed = seed; return s }

// unregisterAfter drops the named solvers and scheme prefixes from the
// process-global registry when the test ends, so tests that register
// stubs can run again under -count N.
func unregisterAfter(t *testing.T, names, schemePrefixes []string) {
	t.Cleanup(func() {
		regMu.Lock()
		defer regMu.Unlock()
		for _, n := range names {
			delete(registry, n)
		}
		for _, p := range schemePrefixes {
			delete(schemes, p)
		}
	})
}

func TestRegistry(t *testing.T) {
	unregisterAfter(t, []string{"stub-a", "stub-b"}, nil)
	Register(stubSolver{name: "stub-a"})
	Register(stubSolver{name: "stub-b"})

	s, err := Lookup("stub-a")
	if err != nil || s.Name() != "stub-a" {
		t.Fatalf("Lookup: %v, %v", s, err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("unknown name resolved")
	}
	names := Names()
	ia, ib := -1, -1
	for i, n := range names {
		if n == "stub-a" {
			ia = i
		}
		if n == "stub-b" {
			ib = i
		}
	}
	if ia < 0 || ib < 0 || ia > ib {
		t.Fatalf("Names() = %v not sorted or missing stubs", names)
	}
	list := List()
	if len(list) != len(names) {
		t.Fatalf("List() has %d entries, Names() %d", len(list), len(names))
	}
	for i, info := range list {
		if info.Name != names[i] {
			t.Fatalf("List()[%d].Name = %q, want %q", i, info.Name, names[i])
		}
	}
	if list[ia].Description != "stub" {
		t.Errorf("List() describes stub-a as %q, want %q", list[ia].Description, "stub")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	Register(stubSolver{name: "stub-a"})
}

func TestRegisterEmptyNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty name did not panic")
		}
	}()
	Register(stubSolver{})
}

func TestWithSeedHelper(t *testing.T) {
	seeded := WithSeed(stubSolver{name: "x"}, 42)
	if seeded.(stubSolver).seed != 42 {
		t.Fatal("WithSeed did not reconfigure a Seeder")
	}
}

func TestEffectiveBudgetSurfacesContextDeadline(t *testing.T) {
	// A zero budget under a deadline context is NOT unbounded: the
	// engine absorbs the deadline, and EffectiveBudget must say so.
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	eng := NewEngine(ctx, Budget{})
	eff := eng.EffectiveBudget()
	if eff.MaxDuration <= 0 {
		t.Fatalf("EffectiveBudget.MaxDuration = %v, want > 0 under a deadline context", eff.MaxDuration)
	}
	if eff.String() == "unbounded" {
		t.Fatal("EffectiveBudget renders as unbounded despite a context deadline")
	}
	if got := eng.Budget(); !got.IsZero() {
		t.Fatalf("submitted budget mutated: %v", got)
	}

	// The tighter of budget duration and context deadline wins.
	eng = NewEngine(ctx, Budget{MaxDuration: time.Minute, MaxEvaluations: 42})
	eff = eng.EffectiveBudget()
	if eff.MaxDuration != time.Minute {
		t.Fatalf("EffectiveBudget.MaxDuration = %v, want the tighter 1m budget", eff.MaxDuration)
	}
	if eff.MaxEvaluations != 42 {
		t.Fatalf("EffectiveBudget dropped MaxEvaluations: %v", eff)
	}
	eng = NewEngine(ctx, Budget{MaxDuration: 2 * time.Hour})
	if eff = eng.EffectiveBudget(); eff.MaxDuration > time.Hour {
		t.Fatalf("EffectiveBudget.MaxDuration = %v, want the tighter context deadline", eff.MaxDuration)
	}

	// Without any deadline the effective budget is the submitted one.
	eng = NewEngine(context.Background(), Budget{MaxEvaluations: 7})
	if eff = eng.EffectiveBudget(); eff != (Budget{MaxEvaluations: 7}) {
		t.Fatalf("EffectiveBudget = %v, want the submitted budget", eff)
	}
}

func TestBudgetEffectiveFor(t *testing.T) {
	b := Budget{MaxEvaluations: 5}
	if got := b.EffectiveFor(nil); got != b {
		t.Fatalf("EffectiveFor(nil) = %v, want %v", got, b)
	}
	if got := b.EffectiveFor(context.Background()); got != b {
		t.Fatalf("EffectiveFor(Background) = %v, want %v", got, b)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	got := b.EffectiveFor(ctx)
	if got.MaxDuration <= 0 || got.MaxDuration > time.Hour {
		t.Fatalf("EffectiveFor deadline ctx: MaxDuration = %v", got.MaxDuration)
	}
	if got.MaxEvaluations != 5 {
		t.Fatalf("EffectiveFor dropped MaxEvaluations: %v", got)
	}
	tight := Budget{MaxDuration: time.Millisecond}
	if got := tight.EffectiveFor(ctx); got.MaxDuration != time.Millisecond {
		t.Fatalf("EffectiveFor kept the looser bound: %v", got.MaxDuration)
	}
}

func TestEffectiveBudgetExpiredDeadlineNotUnbounded(t *testing.T) {
	// A deadline that already lapsed still bounds the run (it stops
	// immediately); the effective budget must never read "unbounded".
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	eng := NewEngine(ctx, Budget{})
	if eff := eng.EffectiveBudget(); eff.MaxDuration <= 0 || eff.String() == "unbounded" {
		t.Fatalf("EffectiveBudget = %v for an expired deadline, want a positive bound", eff)
	}
	if eff := (Budget{}).EffectiveFor(ctx); eff.MaxDuration <= 0 || eff.String() == "unbounded" {
		t.Fatalf("EffectiveFor = %v for an expired deadline, want a positive bound", eff)
	}
}

func TestEngineChildAccounting(t *testing.T) {
	parent := NewEngine(nil, Budget{MaxEvaluations: 900, MaxGenerations: 7})
	a := parent.Child(1.0 / 3)
	b := parent.Child(1.0 / 3)
	if got := a.Budget().MaxEvaluations; got != 300 {
		t.Fatalf("child budget = %d, want 300", got)
	}
	if got := a.Budget().MaxGenerations; got != 7 {
		t.Fatalf("child generations = %d, want parent's 7", got)
	}

	// Child evaluations charge the parent too.
	a.AddEvals(100)
	b.AddEvals(50)
	if got := parent.Evals(); got != 150 {
		t.Fatalf("parent Evals = %d, want 150", got)
	}
	if got := a.Evals(); got != 100 {
		t.Fatalf("child Evals = %d, want 100", got)
	}

	// A grandchild created through WithEngine charges the whole chain.
	g := NewEngine(WithEngine(context.Background(), a), Budget{MaxEvaluations: 10})
	g.AddEvals(10)
	if got, want := a.Evals(), int64(110); got != want {
		t.Fatalf("child Evals after grandchild = %d, want %d", got, want)
	}
	if got, want := parent.Evals(), int64(160); got != want {
		t.Fatalf("parent Evals after grandchild = %d, want %d", got, want)
	}
	if !g.EvalsExhausted() {
		t.Fatal("grandchild bound reached but not exhausted")
	}

	// The child's remaining is capped by the tightest bound up the
	// chain; exhausting the parent exhausts every child.
	parent.AddEvals(parent.RemainingEvals())
	if !a.EvalsExhausted() || !b.EvalsExhausted() {
		t.Fatal("parent exhaustion not visible to children")
	}
	if got := a.RemainingEvals(); got != 0 {
		t.Fatalf("child RemainingEvals = %d after parent exhaustion", got)
	}
}

func TestEngineChildInheritsDeadline(t *testing.T) {
	parent := NewEngine(nil, Budget{MaxDuration: 10 * time.Millisecond})
	c := parent.Child(0.5)
	if c.RemainingDuration() <= 0 || c.RemainingDuration() > 10*time.Millisecond {
		t.Fatalf("child RemainingDuration = %v", c.RemainingDuration())
	}
	time.Sleep(15 * time.Millisecond)
	if !c.Expired() {
		t.Fatal("child did not inherit the parent deadline")
	}
	// No deadline anywhere: -1.
	free := NewEngine(nil, Budget{MaxEvaluations: 1})
	if got := free.RemainingDuration(); got != -1 {
		t.Fatalf("RemainingDuration = %v, want -1 with no deadline", got)
	}
}

func TestEngineTransfer(t *testing.T) {
	parent := NewEngine(nil, Budget{MaxEvaluations: 1000})
	a := parent.Child(0.5)
	b := parent.Child(0.5)

	a.AddEvals(100) // 400 left locally
	if moved := a.Transfer(b, 150); moved != 150 {
		t.Fatalf("Transfer moved %d, want 150", moved)
	}
	if got := a.RemainingEvals(); got != 250 {
		t.Fatalf("donor remaining = %d, want 250", got)
	}
	if got := b.RemainingEvals(); got != 650 {
		t.Fatalf("recipient remaining = %d, want 650", got)
	}
	// The effective budget reflects the transfer.
	if got := a.EffectiveBudget().MaxEvaluations; got != 350 {
		t.Fatalf("donor EffectiveBudget = %d, want 350", got)
	}
	if got := b.EffectiveBudget().MaxEvaluations; got != 650 {
		t.Fatalf("recipient EffectiveBudget = %d, want 650", got)
	}

	// Over-asking clamps to what the donor has left.
	if moved := a.Transfer(b, 1<<30); moved != 250 {
		t.Fatalf("clamped Transfer moved %d, want 250", moved)
	}
	if !a.EvalsExhausted() {
		t.Fatal("fully-drained donor not exhausted")
	}

	// Self, nil and unbounded transfers are no-ops.
	if a.Transfer(a, 10) != 0 {
		t.Fatal("self transfer moved budget")
	}
	free := NewEngine(nil, Budget{MaxDuration: time.Hour})
	if free.Transfer(b, 10) != 0 || b.Transfer(free, 10) != 0 {
		t.Fatal("transfer with an unbounded engine moved budget")
	}
	// The parent bound still caps the family after transfers.
	b.AddEvals(900)
	if got := parent.Evals(); got != 1000 {
		t.Fatalf("parent Evals = %d, want 1000", got)
	}
	if !b.EvalsExhausted() {
		t.Fatal("recipient not stopped by the parent bound")
	}
}

func TestEngineFromContext(t *testing.T) {
	if EngineFrom(nil) != nil || EngineFrom(context.Background()) != nil {
		t.Fatal("EngineFrom invented an engine")
	}
	e := NewEngine(nil, Budget{MaxEvaluations: 1})
	if got := EngineFrom(WithEngine(context.Background(), e)); got != e {
		t.Fatal("EngineFrom did not return the carried engine")
	}
	// NewEngine without a carried engine has no parent: its evals stay
	// its own.
	solo := NewEngine(context.Background(), Budget{MaxEvaluations: 5})
	solo.AddEvals(2)
	if e.Evals() != 0 {
		t.Fatal("unlinked engine charged a stranger")
	}
}

func TestRegisterScheme(t *testing.T) {
	unregisterAfter(t, []string{"stub-scheme:exact"}, []string{"stub-scheme"})
	RegisterScheme("stub-scheme", func(name string) (Solver, error) {
		if name == "stub-scheme:bad" {
			return nil, context.Canceled
		}
		return stubSolver{name: name}, nil
	})
	s, err := Lookup("stub-scheme:anything+else")
	if err != nil || s.Name() != "stub-scheme:anything+else" {
		t.Fatalf("scheme Lookup: %v, %v", s, err)
	}
	if _, err := Lookup("stub-scheme:bad"); err == nil {
		t.Fatal("scheme resolver error swallowed")
	}
	// Exact registrations shadow scheme expansion.
	Register(stubSolver{name: "stub-scheme:exact"})
	s, err = Lookup("stub-scheme:exact")
	if err != nil || s.(stubSolver).seed != 0 {
		t.Fatalf("exact registration not preferred: %v, %v", s, err)
	}
	// Unknown prefixes still fail.
	if _, err := Lookup("no-such-scheme:x"); err == nil {
		t.Fatal("unknown scheme resolved")
	}
	// Scheme names never leak into Names().
	for _, n := range Names() {
		if n == "stub-scheme:anything+else" {
			t.Fatal("dynamically resolved name leaked into Names()")
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate scheme registration did not panic")
		}
	}()
	RegisterScheme("stub-scheme", func(name string) (Solver, error) { return nil, nil })
}
