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
func TestPACGAGoldenFingerprint(t *testing.T) {
	golden := []struct {
		instance      string
		makespanBits  uint64
		lsMoves       int64
		assignmentFNV uint64
	}{
		{"u_c_hihi.0", 0x415d14d1f32953fd, 32330, 0xdad209f8c10b3d64},
		{"u_i_hilo.0", 0x40f280a3905d2cf8, 34132, 0xac117c0a04891a08},
		{"u_s_lohi.0", 0x410242b10ae55ce5, 34892, 0xb1bcb9f9f07bd8ac},
		{"u_c_lolo.0", 0x40b4dc3b330e9165, 29873, 0xb2c227ef038084d},
		{"u_c_hihi.0@64x8", 0x4144de32d155a123, 18966, 0x631be8a130a0e4c2},
		{"u_i_hilo.0@64x8", 0x40d86fa0faf4dcce, 21917, 0xd81bd0a974315924},
		{"u_s_lohi.0@64x8", 0x40f0524a151aa7d6, 22045, 0x579f801dfd375c43},
		{"u_c_lolo.0@64x8", 0x409651a5400d22a0, 20791, 0x2bdc81c9a8b62286},
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
