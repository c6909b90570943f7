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
// The rows were last re-recorded at the single-draw epoch, when H2LL
// switched from a reservoir over the makespan machine's tasks (one Intn
// per task) to one Intn(count) per iteration. That draws from the same
// uniform distribution but consumes the RNG differently, so every
// trajectory moved; TestH2LLDrawDistribution is the evidence that the
// outcome distribution did not.
func TestPACGAGoldenFingerprint(t *testing.T) {
	golden := []struct {
		instance      string
		makespanBits  uint64
		lsMoves       int64
		assignmentFNV uint64
	}{
		{"u_c_hihi.0", 0x415cc4ae3b5291ff, 31472, 0xd430d4a3eb866aad},
		{"u_i_hilo.0", 0x40f220d70cbe583a, 34172, 0x98e76c8e3cc458cb},
		{"u_s_lohi.0", 0x4102b1c614c0f190, 35421, 0xb633fa24c18e4a27},
		{"u_c_lolo.0", 0x40b4d229cefc9e7f, 29245, 0x838fcb9f8427d1c9},
		{"u_c_hihi.0@64x8", 0x4144fa7ec24d4567, 19755, 0x8a7379993fa57642},
		{"u_i_hilo.0@64x8", 0x40d8c758c2555b1f, 21989, 0xa537e463ab9cb84},
		{"u_s_lohi.0@64x8", 0x40f0524a151aa7d6, 22048, 0xf58470c6053e12c2},
		{"u_c_lolo.0@64x8", 0x4096b2eefee6d4a9, 20426, 0x7c717f0361890027},
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
