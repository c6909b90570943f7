package schedule

import (
	"math"
	"testing"

	"gridsched/internal/etc"
	"gridsched/internal/rng"
)

// TestIncrementalDriftRegression is the long-run regression test for the
// compensated completion-time engine: ~10⁶ random Move/Assign/Unassign
// operations on a benchmark-sized instance, asserting at every
// checkpoint that the incremental makespan tracks the from-scratch
// recomputation within the documented DriftBound.
//
// The pre-fix bookkeeping (plain `CT[m] += v`) fails this test: each
// update leaks up to half an ulp of the running completion time, and
// over 10⁶ updates those leaks random-walk far past the bound. The
// compensated scheme absorbs every update's rounding error into the
// low-order word, so the residual difference is MakespanFull's own
// summation error, which DriftBound covers.
func TestIncrementalDriftRegression(t *testing.T) {
	in := testInstance(t, 512, 16, 2026)
	r := rng.New(2026)
	s := NewRandom(in, r)
	const ops = 1_000_000
	for i := 1; i <= ops; i++ {
		switch r.Intn(8) {
		case 0:
			s.Unassign(r.Intn(in.T))
		case 1:
			task := r.Intn(in.T)
			if s.S[task] == Unassigned {
				s.Assign(task, r.Intn(in.M))
			} else {
				s.Move(task, r.Intn(in.M))
			}
		default:
			s.Move(r.Intn(in.T), r.Intn(in.M))
		}
		if i%100_000 == 0 {
			inc, full := s.Makespan(), s.MakespanFull()
			if drift := math.Abs(inc - full); drift > s.DriftBound() {
				t.Fatalf("after %d ops: |Makespan %v − MakespanFull %v| = %v exceeds DriftBound %v",
					i, inc, full, drift, s.DriftBound())
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("after %d ops: %v", i, err)
			}
		}
	}
}

// TestDriftBoundScale sanity-checks the bound itself: it must be tiny
// relative to the makespan (so it cannot mask a real bookkeeping bug
// that misaccounts a whole ETC entry) yet nonzero for non-empty
// schedules.
func TestDriftBoundScale(t *testing.T) {
	in := testInstance(t, 128, 8, 5)
	s := NewRandom(in, rng.New(5))
	b := s.DriftBound()
	if b <= 0 {
		t.Fatalf("DriftBound = %v, want > 0", b)
	}
	if b >= 1e-9*s.Makespan() {
		t.Fatalf("DriftBound %v is not tiny relative to makespan %v", b, s.Makespan())
	}
}

// TestDegenerateInstances pins the documented contract on degenerate
// (machineless / taskless) instances: Makespan and MakespanFull return
// 0, MakespanMachine returns (-1, 0), and the instrumentation metrics
// return 0 instead of panicking or producing ±Inf/NaN. Such instances
// are not constructible through etc.New (checkDims rejects them) but
// arise from hand-built Instance values in harness code and from the
// hardened-but-minimal parser paths.
func TestDegenerateInstances(t *testing.T) {
	cases := []struct {
		name         string
		tasks, machs int
	}{
		{"no-machines-no-tasks", 0, 0},
		{"no-machines", 3, 0},
		{"no-tasks", 0, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := &etc.Instance{
				Name:  tc.name,
				T:     tc.tasks,
				M:     tc.machs,
				Row:   make([]float64, tc.tasks*tc.machs),
				Ready: make([]float64, tc.machs),
			}
			for i := range in.Row {
				in.Row[i] = 1
			}
			s := New(in)
			if got := s.Makespan(); got != 0 {
				t.Errorf("Makespan = %v, want 0", got)
			}
			if mac, ct := s.MakespanMachine(); tc.machs == 0 && (mac != -1 || ct != 0) {
				t.Errorf("MakespanMachine = (%d, %v), want (-1, 0)", mac, ct)
			}
			if got := s.MakespanFull(); got != 0 {
				t.Errorf("MakespanFull = %v, want 0", got)
			}
			if got := s.Utilization(); got != 0 {
				t.Errorf("Utilization = %v, want 0", got)
			}
			if got := s.ImbalanceCV(); got != 0 {
				t.Errorf("ImbalanceCV = %v, want 0", got)
			}
			if tc.machs == 0 {
				if got := s.DriftBound(); got != 0 {
					t.Errorf("DriftBound = %v, want 0", got)
				}
			}
			if got := s.MachinesByCompletion(nil); len(got) != tc.machs {
				t.Errorf("MachinesByCompletion length %d, want %d", len(got), tc.machs)
			}
			if err := s.Validate(); err != nil {
				t.Errorf("Validate: %v", err)
			}
		})
	}
}
