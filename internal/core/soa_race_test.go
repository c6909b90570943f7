package core

import (
	"testing"

	"gridsched/internal/solver"
)

// TestSoAPopulationConcurrentWorkers hammers the structure-of-arrays
// population under the race detector: four asynchronous workers breed
// over adjacent slices of the shared assignment, fitness and
// completion-time planes while convergence and diversity recording read
// whole blocks concurrently. Any lock-discipline hole the contiguous
// layout opened (adjacent cells share cache lines and backing arrays)
// shows up as a -race report here.
func TestSoAPopulationConcurrentWorkers(t *testing.T) {
	in := stressInstance(t, 9)
	p := DefaultParams()
	p.GridW, p.GridH = 8, 8
	p.Threads = 4
	p.Seed = 77
	p.RecordConvergence = true
	p.RecordDiversity = true
	res, err := run(in, p, solver.Budget{MaxEvaluations: 6000})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Best.Validate(); err != nil {
		t.Fatalf("corrupt best schedule: %v", err)
	}
	if res.BestFitness <= 0 {
		t.Fatalf("nonpositive best fitness %v", res.BestFitness)
	}
	// No sample-count assertion: at GOMAXPROCS=1 one worker can use up
	// the whole evaluation budget before worker 0, which takes the
	// diversity samples, finishes a generation, legitimately leaving a
	// series empty. The recording reads still ran concurrently with the
	// breeders, which is what -race checks.
}
