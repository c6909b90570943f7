// Quickstart: generate a benchmark instance, run PA-CGA for one second,
// and compare the result against the Min-min constructive heuristic.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"gridsched"
)

func main() {
	// The 12 paper benchmark instances are generated deterministically
	// by name: u_<consistency>_<task-het><machine-het>.<index>.
	inst, err := gridsched.GenerateInstance("u_i_hihi.0")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("instance: %s — %d tasks on %d machines (%s)\n",
		inst.Name, inst.T, inst.M, inst.Blazewicz())

	// A constructive baseline: Min-min builds a good schedule in
	// milliseconds and also seeds the GA population.
	minmin := gridsched.MinMin(inst)
	fmt.Printf("min-min makespan:  %.0f\n", minmin.Makespan())

	// PA-CGA with the paper's Table 1 parameters (16×16 population, L5
	// neighborhood, tpx crossover, H2LL local search, 3 threads), run
	// for one second of wall time.
	params := gridsched.DefaultParams()
	params.Seed = 42

	res, err := gridsched.PACGA{Params: params}.Solve(context.Background(), inst,
		gridsched.Budget{MaxDuration: time.Second})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pa-cga makespan:   %.0f  (%.1f%% better than Min-min)\n",
		res.BestFitness, (minmin.Makespan()-res.BestFitness)/minmin.Makespan()*100)
	fmt.Printf("evaluations:       %d in %v across %d threads\n",
		res.Evaluations, res.Duration.Round(time.Millisecond), len(res.PerThread))

	// The best schedule is a plain assignment vector plus per-machine
	// completion times; inspect the three busiest machines.
	fmt.Println("busiest machines:")
	order := res.Best.MachinesByCompletion(nil)
	for _, m := range order[len(order)-3:] {
		fmt.Printf("  machine %2d: %3d tasks, completion %.0f\n",
			m, res.Best.CountOn(m), res.Best.CT[m])
	}
}
