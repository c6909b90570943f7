// Parameter-sweep scheduling: the motivating workload of §2.1. A
// Monte-Carlo study submits hundreds of near-independent simulation runs
// — the same code with different parameters — to a heterogeneous grid.
// Task workloads cluster around a nominal size with occasional heavy
// tails (a replication that converges slowly), machines span a 10×
// speed range.
//
// The example builds the ETC matrix from explicit workloads and machine
// speeds (rather than the opaque benchmark generator), schedules the
// sweep with Min-min, Sufferage and PA-CGA, and reports the campaign
// makespan each achieves.
//
// Run with:
//
//	go run ./examples/paramsweep
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"
	"time"

	"gridsched"
)

const (
	sweepPoints = 600 // simulation runs in the campaign
	machines    = 24  // grid nodes
)

func main() {
	r := rand.New(rand.NewSource(2024))

	// Workload of each sweep point, in millions of instructions: nominal
	// 800 MI, log-normal-ish spread, and ~5% slow-converging outliers.
	workload := make([]float64, sweepPoints)
	for i := range workload {
		w := 800 * math.Exp(0.4*(r.Float64()*2-1))
		if r.Float64() < 0.05 {
			w *= 6 // heavy tail: a badly conditioned parameter set
		}
		workload[i] = w
	}

	// Node speeds in MIPS: three tiers of hardware with per-node jitter.
	speed := make([]float64, machines)
	for m := range speed {
		base := []float64{50, 120, 400}[m%3]
		speed[m] = base * (0.9 + 0.2*r.Float64())
	}

	// ETC[t][m] = workload[t] / speed[m]: the classic ETC construction.
	row := make([]float64, sweepPoints*machines)
	for t := 0; t < sweepPoints; t++ {
		for m := 0; m < machines; m++ {
			row[t*machines+m] = workload[t] / speed[m]
		}
	}
	inst, err := gridsched.NewInstanceFromMatrix("mc-sweep", sweepPoints, machines, row)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Monte-Carlo sweep: %d runs on %d nodes (%s)\n\n", sweepPoints, machines, inst.Blazewicz())

	// Constructive baselines.
	for _, name := range []string{"minmin", "sufferage", "mct"} {
		h, err := gridsched.HeuristicByName(name)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		s := h(inst)
		fmt.Printf("  %-10s makespan %9.1f s   (%v)\n", name, s.Makespan(), time.Since(start).Round(time.Microsecond))
	}

	// PA-CGA: worth its runtime when the campaign itself runs for hours.
	p := gridsched.DefaultParams()
	p.Seed = 7
	start := time.Now()
	res, err := gridsched.PACGA{Params: p}.Solve(context.Background(), inst,
		gridsched.Budget{MaxDuration: 2 * time.Second})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %-10s makespan %9.1f s   (%v, %d evaluations)\n",
		"pa-cga", res.BestFitness, time.Since(start).Round(time.Millisecond), res.Evaluations)

	// How well is the tail absorbed? Report load balance statistics.
	var mean, worst float64
	for m := 0; m < machines; m++ {
		mean += res.Best.CT[m]
		if res.Best.CT[m] > worst {
			worst = res.Best.CT[m]
		}
	}
	mean /= machines
	fmt.Printf("\nload balance: worst node %.1f s vs mean %.1f s (imbalance %.1f%%)\n",
		worst, mean, (worst-mean)/mean*100)
}
