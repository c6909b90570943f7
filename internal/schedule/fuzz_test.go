package schedule

import (
	"math"
	"testing"

	"gridsched/internal/etc"
	"gridsched/internal/rng"
)

// FuzzScheduleOps drives a schedule through an arbitrary mutation
// sequence decoded from the fuzz input (3 bytes per operation: opcode,
// task, machine) and asserts the incremental engine's invariants after
// every sequence: Validate passes, the incremental makespan tracks the
// full recomputation within DriftBound, MakespanMachine is the first
// maximum of CT, and Clone/CopyFrom/RecomputeCT round-trip the state. A shadow
// schedule replays every SetRange as a per-gene SetAssignment loop and
// must end bit-identical.
func FuzzScheduleOps(f *testing.F) {
	in, err := etc.Generate(etc.GenSpec{
		Class: etc.Class{Consistency: etc.Inconsistent, TaskHet: etc.High, MachineHet: etc.High},
		Tasks: 24, Machines: 5, Seed: 99,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{2, 3, 1, 1, 3, 0, 2, 3, 4})
	f.Add([]byte{0, 1, 2, 3, 1, 2, 0, 1, 3, 1, 1, 0, 2, 1, 4, 0, 23, 4})
	f.Add([]byte{0, 2, 1, 4, 0, 200, 1, 5, 0, 4, 5, 7, 4, 23, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, ref := New(in), New(in)
		for i := 0; i+2 < len(data); i += 3 {
			task := int(data[i+1]) % in.T
			mac := int(data[i+2]) % in.M
			switch data[i] % 5 {
			case 0:
				s.SetAssignment(task, mac)
				ref.SetAssignment(task, mac)
			case 1:
				s.Unassign(task)
				ref.Unassign(task)
			case 2:
				s.Move(task, mac)
				ref.Move(task, mac)
			case 3:
				if s.S[task] == Unassigned {
					s.Assign(task, mac)
					ref.Assign(task, mac)
				}
			case 4:
				// Window [task, task+n) from a source that keeps about
				// half the current genes and draws the rest from the
				// machines and Unassigned.
				n := int(data[i+2]) % (in.T - task + 1)
				r := rng.New(uint64(data[i+1])<<8 | uint64(data[i+2]))
				src := make([]int, n)
				for k := range src {
					src[k] = s.S[task+k]
					if r.Bool(0.5) {
						src[k] = r.Intn(in.M+1) - 1
					}
				}
				s.SetRange(task, src)
				for k, m := range src {
					ref.SetAssignment(task+k, m)
				}
			}
		}
		requireSameState(t, ref, s, "SetRange vs SetAssignment shadow")
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		if inc, full := s.Makespan(), s.MakespanFull(); math.Abs(inc-full) > s.DriftBound() {
			t.Fatalf("|Makespan %v − MakespanFull %v| exceeds DriftBound %v", inc, full, s.DriftBound())
		}
		mac, ct := s.MakespanMachine()
		if ct != s.Makespan() {
			t.Fatalf("MakespanMachine ct %v != Makespan %v", ct, s.Makespan())
		}
		for m, c := range s.CT {
			if c > ct || (c == ct && m < mac) {
				t.Fatalf("machine %d (CT %v) beats reported makespan machine %d (CT %v)", m, c, mac, ct)
			}
		}
		// Clone and CopyFrom must preserve the state exactly.
		c := s.Clone()
		if c.Makespan() != s.Makespan() {
			t.Fatalf("clone makespan %v != %v", c.Makespan(), s.Makespan())
		}
		w := New(in)
		w.CopyFrom(s)
		if w.Makespan() != s.Makespan() {
			t.Fatalf("copy makespan %v != %v", w.Makespan(), s.Makespan())
		}
		// RecomputeCT is idempotent on a compensated schedule up to the
		// drift bound, and must leave a valid schedule behind.
		before := s.Makespan()
		s.RecomputeCT()
		if math.Abs(s.Makespan()-before) > s.DriftBound() {
			t.Fatalf("RecomputeCT moved makespan %v -> %v", before, s.Makespan())
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("after RecomputeCT: %v", err)
		}
	})
}
