package core

import (
	"hash/fnv"
	"math"
	"testing"

	"gridsched/internal/etc"
	"gridsched/internal/schedule"
	"gridsched/internal/solver"
)

// goldenHash is the FNV-1a 64 hash of an assignment vector, each machine
// index written as 8 little-endian bytes.
func goldenHash(s *schedule.Schedule) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, m := range s.S {
		v := uint64(int64(m))
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestPACGAGoldenFingerprint pins the exact trajectory of a 1-thread
// PA-CGA Solve (Table 1 parameters, 5000 evaluations): the bits of the
// best makespan, the number of H2LL moves and a hash of the best
// assignment. Any change to the RNG consumption or the move choice of
// an operator on the breeding path — selection, crossover, mutation,
// H2LL, replacement — changes these values. A deliberate behaviour
// change re-records them; a speed-up must not.
//
// The rows were last re-recorded at the rejection epoch, when H2LL
// switched from one Intn(count) and a walk of a per-machine task list
// (the single-draw epoch, which had replaced a reservoir over the
// makespan machine's tasks) to rejection over the assignment vector,
// with a per-call list of a machine whose sample missed. Each draws
// from the same uniform distribution but consumes the RNG differently,
// so every trajectory moved; TestH2LLDrawDistribution is the evidence
// that the outcome distribution did not.
func TestPACGAGoldenFingerprint(t *testing.T) {
	golden := []struct {
		instance      string
		makespanBits  uint64
		lsMoves       int64
		assignmentFNV uint64
	}{
		{"u_c_hihi.0", 0x415c8ef4fa424399, 31652, 0xfdd40573a1d11628},
		{"u_i_hilo.0", 0x40f2111915bc6e4f, 35456, 0x171b371da3600481},
		{"u_s_lohi.0", 0x4102a2bc5b7eb4dc, 36891, 0x709afe79bea478a},
		{"u_c_lolo.0", 0x40b4e357aa4fc4dc, 30482, 0xd019888859c82ee3},
		{"u_c_hihi.0@64x8", 0x4144db20619fdc45, 20199, 0x499466f5d2642927},
		{"u_i_hilo.0@64x8", 0x40d8859dd8876c26, 22446, 0xe898b6c236651d21},
		{"u_s_lohi.0@64x8", 0x40f000df402fa439, 21843, 0x9f7188a4c1ae3b47},
		{"u_c_lolo.0@64x8", 0x40968d2bef760cb6, 21088, 0x39761bf82af06347},
	}
	for _, g := range golden {
		t.Run(g.instance, func(t *testing.T) {
			in, err := etc.GenerateByName(g.instance)
			if err != nil {
				t.Fatal(err)
			}
			p := DefaultParams()
			p.Threads = 1
			res, err := run(in, p, solver.Budget{MaxEvaluations: 5000})
			if err != nil {
				t.Fatal(err)
			}
			bits, h := math.Float64bits(res.BestFitness), goldenHash(res.Best)
			if bits != g.makespanBits || res.LocalSearchMoves != g.lsMoves || h != g.assignmentFNV {
				t.Errorf("fingerprint {%q, %#x, %d, %#x}, want {%#x, %d, %#x}",
					g.instance, bits, res.LocalSearchMoves, h, g.makespanBits, g.lsMoves, g.assignmentFNV)
			}
		})
	}
}

// TestSyncCGAGoldenFingerprint pins the synchronous cellular GA's
// trajectory the same way (Table 1 parameters, 5000 evaluations; the
// model is single-threaded whatever Params.Threads says). It is the
// bit-identity referee for the breeding step SyncCGA shares with
// PA-CGA: the same RNG draws in the same order must give these rows.
func TestSyncCGAGoldenFingerprint(t *testing.T) {
	golden := []struct {
		instance      string
		makespanBits  uint64
		lsMoves       int64
		assignmentFNV uint64
	}{
		{"u_c_hihi.0", 0x415cc58228781125, 38585, 0x5ac98c716719a845},
		{"u_i_hilo.0", 0x40f1dff9c0fd8f08, 40953, 0xfebfa546071d10ae},
		{"u_s_lohi.0", 0x4102a7073eb9a1c8, 41738, 0x277aed794bc70568},
		{"u_c_lolo.0", 0x40b4d010e70ac8e2, 37989, 0x727f19e80c362d0e},
		{"u_c_hihi.0@64x8", 0x4144f7ce7422c512, 25458, 0xcfc75786d95afc66},
		{"u_i_hilo.0@64x8", 0x40d8df62a90781ff, 28361, 0xe9cfb96f1fcbaa6},
		{"u_s_lohi.0@64x8", 0x40f07acc08a06cdd, 28536, 0x54ffa521e4b724e0},
		{"u_c_lolo.0@64x8", 0x4096de98f1ffa9bc, 25045, 0x919f076255a0a5},
	}
	for _, g := range golden {
		t.Run(g.instance, func(t *testing.T) {
			in, err := etc.GenerateByName(g.instance)
			if err != nil {
				t.Fatal(err)
			}
			res, err := runSync(in, DefaultParams(), solver.Budget{MaxEvaluations: 5000})
			if err != nil {
				t.Fatal(err)
			}
			bits, h := math.Float64bits(res.BestFitness), goldenHash(res.Best)
			if bits != g.makespanBits || res.LocalSearchMoves != g.lsMoves || h != g.assignmentFNV {
				t.Errorf("fingerprint {%q, %#x, %d, %#x}, want {%#x, %d, %#x}",
					g.instance, bits, res.LocalSearchMoves, h, g.makespanBits, g.lsMoves, g.assignmentFNV)
			}
		})
	}
}
