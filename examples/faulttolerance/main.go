// Fault tolerance study: how much of PA-CGA's optimization advantage
// survives the dynamic grid of §2.1? The example optimizes a schedule,
// then replays it on the discrete-event simulator under increasing
// levels of execution-time noise and machine failures, comparing against
// the myopic MCT schedule replayed under identical conditions (same
// seeds, same failure times).
//
// Run with:
//
//	go run ./examples/faulttolerance
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"gridsched"
)

const simRuns = 15

func main() {
	inst, err := gridsched.GenerateInstance("u_i_hihi.0")
	if err != nil {
		log.Fatal(err)
	}

	// Two plans for the same instance.
	mct, err := gridsched.HeuristicByName("mct")
	if err != nil {
		log.Fatal(err)
	}
	mctPlan := mct(inst)

	p := gridsched.DefaultParams()
	p.Seed = 11
	res, err := gridsched.PACGA{Params: p}.Solve(context.Background(), inst,
		gridsched.Budget{MaxDuration: 2 * time.Second})
	if err != nil {
		log.Fatal(err)
	}
	gaPlan := res.Best

	fmt.Printf("predicted makespan:  mct %.0f   pa-cga %.0f  (%.1f%% better)\n\n",
		mctPlan.Makespan(), gaPlan.Makespan(),
		(mctPlan.Makespan()-gaPlan.Makespan())/mctPlan.Makespan()*100)

	type scenario struct {
		name     string
		noise    float64
		mtbfFrac float64 // fraction of predicted makespan; 0 = no failures
	}
	scenarios := []scenario{
		{"exact ETC, stable grid", 0, 0},
		{"20% time noise", 0.2, 0},
		{"40% time noise", 0.4, 0},
		{"noise + rare failures", 0.2, 2.0},
		{"noise + frequent failures", 0.2, 0.5},
	}

	fmt.Printf("%-28s %14s %14s %10s\n", "scenario", "mct actual", "pa-cga actual", "edge kept")
	for _, sc := range scenarios {
		mctMean := replay(inst, mctPlan, sc.noise, sc.mtbfFrac)
		gaMean := replay(inst, gaPlan, sc.noise, sc.mtbfFrac)
		edge := (mctMean - gaMean) / mctMean * 100
		fmt.Printf("%-28s %14.0f %14.0f %9.1f%%\n", sc.name, mctMean, gaMean, edge)
	}
	fmt.Println("\n\"edge kept\" is PA-CGA's remaining advantage over MCT under each scenario.")
}

// replay simulates a plan under the scenario and returns the mean actual
// makespan over simRuns replications with fixed seeds, so both plans
// face identical noise draws and failure processes.
func replay(inst *gridsched.Instance, plan *gridsched.Schedule, noise, mtbfFrac float64) float64 {
	cfg := gridsched.SimConfig{NoiseSigma: noise}
	if mtbfFrac > 0 {
		cfg.MTBF = plan.Makespan() * mtbfFrac
		cfg.RepairTime = plan.Makespan() * 0.2
	}
	sum := 0.0
	for i := 0; i < simRuns; i++ {
		cfg.Seed = uint64(i) + 1
		res, err := gridsched.Simulate(inst, plan, cfg)
		if err != nil {
			log.Fatal(err)
		}
		sum += res.Makespan
	}
	return sum / simRuns
}
