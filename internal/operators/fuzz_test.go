package operators

import (
	"fmt"
	"testing"

	"gridsched/internal/etc"
	"gridsched/internal/rng"
	"gridsched/internal/schedule"
)

// FuzzH2LLApply runs H2LL on an arbitrary partial schedule decoded from
// the fuzz input: up to 48 tasks on up to 9 machines, ETC entries that
// are small integers in [1, 3] (so completion times tie often), one
// machine's ready time, and one assignment byte per task whose value M
// leaves the task unassigned, so machines are often empty and the
// makespan machine can be an empty one. After Apply, Validate must
// pass, the makespan must not have risen, no unassigned task may have
// been placed, and the move count must lie in [0, Iterations].
func FuzzH2LLApply(f *testing.F) {
	f.Add(uint8(47), uint8(7), uint8(10), uint8(0), uint16(0), uint64(1), []byte{})
	f.Add(uint8(15), uint8(3), uint8(39), uint8(2), uint16(0), uint64(2), []byte{0, 1, 2, 3, 0, 0, 0, 1})
	f.Add(uint8(30), uint8(5), uint8(20), uint8(9), uint16(0x0163), uint64(3), []byte{1, 2, 3, 4, 5, 6})
	f.Add(uint8(8), uint8(0), uint8(5), uint8(0), uint16(0), uint64(4), []byte{0, 0, 0})
	f.Add(uint8(40), uint8(8), uint8(39), uint8(1), uint16(0x083f), uint64(5), []byte{8, 0, 0, 0, 9})
	f.Fuzz(func(t *testing.T, tasks, machines, iters, ncand uint8, ready uint16, seed uint64, assign []byte) {
		T, M := 1+int(tasks)%48, 1+int(machines)%9
		r := rng.New(seed)
		row := make([]float64, T*M)
		for i := range row {
			row[i] = float64(1 + r.Intn(3))
		}
		in, err := etc.New(fmt.Sprintf("fuzz_%dx%d", T, M), T, M, row)
		if err != nil {
			t.Fatal(err)
		}
		if ready != 0 {
			rt := make([]float64, M)
			rt[int(ready>>8)%M] = float64(ready & 0xff)
			if in, err = in.WithReady(rt); err != nil {
				t.Fatal(err)
			}
		}
		s := schedule.New(in)
		for task := range s.S {
			if len(assign) > 0 {
				if m := int(assign[task%len(assign)]) % (M + 1); m < M {
					s.Assign(task, m)
				}
			}
		}
		before := s.Clone()
		h := H2LL{Iterations: int(iters) % 40, Candidates: int(ncand) % (M + 2)}
		moves := h.Apply(s, r)
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		if s.Makespan() > before.Makespan() {
			t.Fatalf("%+v raised the makespan %v -> %v", h, before.Makespan(), s.Makespan())
		}
		for task, m := range before.S {
			if m == schedule.Unassigned && s.S[task] != m {
				t.Fatalf("%+v placed unassigned task %d on machine %d", h, task, s.S[task])
			}
		}
		if moves < 0 || moves > h.Iterations {
			t.Fatalf("%+v made %d moves", h, moves)
		}
	})
}
