// Rolling batch scheduling with machine churn: the dynamic-grid setting
// sketched in §2.1. Waves of tasks arrive at fixed intervals; each wave
// is scheduled as a batch on whatever machines are currently in the
// grid, with per-machine ready times carrying whatever backlog remains
// from earlier waves. Between waves, machines may drop out or join.
//
// The example contrasts two per-wave policies over the whole horizon:
//
//   - MCT: assign each task greedily (microseconds, myopic);
//   - PA-CGA: spend a short optimization budget on each batch.
//
// Run with:
//
//	go run ./examples/batchsim
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"gridsched"
)

const (
	waves        = 6
	tasksPerWave = 160
	maxMachines  = 20
	// interArrival is the time between waves: long enough that healthy
	// nodes drain most of their backlog, short enough that slow nodes
	// carry debt into the next wave.
	interArrival = 150.0
)

// machine is a grid node: a speed and the absolute time at which it
// finishes its currently assigned work.
type machine struct {
	speed float64
	ready float64
}

// wave is one pre-generated arrival event, shared by all policies so
// every policy faces the identical scenario.
type wave struct {
	workloads []float64
	drop      int  // pseudo-index of a node to drop (-1: none)
	join      bool // a new node appears after the drop
	joinSpeed float64
}

func main() {
	r := rand.New(rand.NewSource(7))

	baseGrid := make([]machine, 14)
	for i := range baseGrid {
		baseGrid[i] = machine{speed: 40 + 360*r.Float64()}
	}
	trace := make([]wave, waves)
	for w := range trace {
		wl := make([]float64, tasksPerWave)
		for i := range wl {
			wl[i] = 200 + 2000*r.Float64()
		}
		drop := -1
		if w > 0 && r.Float64() < 0.5 {
			drop = r.Intn(1 << 20)
		}
		trace[w] = wave{workloads: wl, drop: drop, join: r.Float64() < 0.5, joinSpeed: 40 + 360*r.Float64()}
	}

	mct, err := gridsched.HeuristicByName("mct")
	if err != nil {
		log.Fatal(err)
	}
	type policy struct {
		name     string
		schedule func(inst *gridsched.Instance, seed uint64) (*gridsched.Schedule, error)
	}
	policies := []policy{
		{"mct", func(inst *gridsched.Instance, _ uint64) (*gridsched.Schedule, error) {
			return mct(inst), nil
		}},
		{"pa-cga", func(inst *gridsched.Instance, seed uint64) (*gridsched.Schedule, error) {
			p := gridsched.DefaultParams()
			p.GridW, p.GridH = 8, 8 // small population: short per-wave budget
			p.Threads = 2
			p.Seed = seed
			res, err := gridsched.PACGA{Params: p}.Solve(context.Background(), inst,
				gridsched.Budget{MaxDuration: 250 * time.Millisecond})
			if err != nil {
				return nil, err
			}
			return res.Best, nil
		}},
	}

	fmt.Printf("rolling batches: %d waves x %d tasks, inter-arrival %.0f s\n\n", waves, tasksPerWave, interArrival)
	for _, pol := range policies {
		nodes := append([]machine(nil), baseGrid...)
		clock := 0.0
		sumWaveMakespan := 0.0
		horizonEnd := 0.0

		for w, wv := range trace {
			// Churn happens while the previous wave runs.
			if wv.drop >= 0 && len(nodes) > 3 {
				d := wv.drop % len(nodes)
				nodes = append(nodes[:d], nodes[d+1:]...)
			}
			if wv.join && len(nodes) < maxMachines {
				nodes = append(nodes, machine{speed: wv.joinSpeed, ready: clock})
			}

			// Build the wave's instance. Ready times are relative to the
			// wave start: backlog remaining on each node.
			row := make([]float64, len(wv.workloads)*len(nodes))
			for t, wl := range wv.workloads {
				for m, nd := range nodes {
					row[t*len(nodes)+m] = wl / nd.speed
				}
			}
			inst, err := gridsched.NewInstanceFromMatrix(
				fmt.Sprintf("wave-%d", w), len(wv.workloads), len(nodes), row)
			if err != nil {
				log.Fatal(err)
			}
			ready := make([]float64, len(nodes))
			for m, nd := range nodes {
				if nd.ready > clock {
					ready[m] = nd.ready - clock
				}
			}
			if inst, err = inst.WithReady(ready); err != nil {
				log.Fatal(err)
			}

			s, err := pol.schedule(inst, uint64(w)+1)
			if err != nil {
				log.Fatal(err)
			}

			// Commit: node completion moves to wave start + completion.
			for m := range nodes {
				nodes[m].ready = clock + s.CT[m]
			}
			mk := s.Makespan()
			sumWaveMakespan += mk
			horizonEnd = clock + mk
			clock += interArrival
		}
		fmt.Printf("%-8s mean wave makespan %8.1f s   all work done at t=%8.1f s\n",
			pol.name, sumWaveMakespan/waves, horizonEnd)
	}
	fmt.Println("\nPA-CGA spends 250ms per wave; the gap vs MCT is the value of batch-level optimization under churn.")
}
