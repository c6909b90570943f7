// Command gridsim schedules a benchmark instance (with a heuristic or
// PA-CGA) and then executes the schedule on the discrete-event grid
// simulator under execution-time noise and machine failures, reporting
// how the optimized plan degrades in the dynamic environment of §2.1.
//
// Usage:
//
//	gridsim -instance u_i_hihi.0 -scheduler pacga -noise 0.2 -mtbf-frac 0.5 -runs 20
//	gridsim -scheduler minmin -trace
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"gridsched"
	"gridsched/internal/cliutil"
	"gridsched/internal/stats"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gridsim: ")

	var (
		instName  = flag.String("instance", "u_i_hihi.0", "benchmark instance name")
		scheduler = flag.String("scheduler", "pacga", "scheduler: pacga or any heuristic (minmin, mct, ...)")
		budget    = flag.Duration("budget", time.Second, "PA-CGA optimization budget")
		noise     = flag.Float64("noise", 0.2, "lognormal execution-time noise sigma")
		mtbfFrac  = flag.Float64("mtbf-frac", 0, "machine MTBF as a fraction of the predicted makespan (0 disables failures)")
		repair    = flag.Float64("repair-frac", 0.2, "repair time as a fraction of the predicted makespan")
		runs      = flag.Int("runs", 20, "simulation replications")
		seed      = cliutil.SeedFlag()
		trace     = flag.Bool("trace", false, "print the event trace of the first run")
	)
	flag.Parse()

	inst, err := gridsched.GenerateInstance(*instName)
	if err != nil {
		log.Fatal(err)
	}

	var sched *gridsched.Schedule
	switch *scheduler {
	case "pacga":
		p := gridsched.DefaultParams()
		p.Seed = *seed
		res, err := gridsched.PACGA{Params: p}.Solve(context.Background(), inst, gridsched.Budget{MaxDuration: *budget})
		if err != nil {
			log.Fatal(err)
		}
		sched = res.Best
	default:
		h, err := gridsched.HeuristicByName(*scheduler)
		if err != nil {
			log.Fatal(err)
		}
		sched = h(inst)
	}

	predicted := sched.Makespan()
	fmt.Printf("scheduler        %s\n", *scheduler)
	fmt.Printf("predicted        %.1f\n", predicted)

	cfg := gridsched.SimConfig{NoiseSigma: *noise}
	if *mtbfFrac > 0 {
		cfg.MTBF = predicted * *mtbfFrac
		cfg.RepairTime = predicted * *repair
	}

	makespans := make([]float64, 0, *runs)
	failures, restarts := 0, 0
	for i := 0; i < *runs; i++ {
		cfg.Seed = *seed + uint64(i)
		cfg.RecordTrace = *trace && i == 0
		res, err := gridsched.Simulate(inst, sched, cfg)
		if err != nil {
			log.Fatal(err)
		}
		makespans = append(makespans, res.Makespan)
		failures += res.Failures
		restarts += res.Restarts
		if cfg.RecordTrace {
			fmt.Printf("\nevent trace (run 0, first 25 events):\n")
			for j, ev := range res.Trace {
				if j >= 25 {
					fmt.Printf("  ... %d more events\n", len(res.Trace)-25)
					break
				}
				fmt.Printf("  t=%10.2f  %-10s task=%-4d machine=%d\n", ev.Time, ev.Kind, ev.Task, ev.Machine)
			}
			fmt.Println()
		}
	}

	sum := stats.Summarize(makespans)
	fmt.Printf("simulated        mean %.1f  (median %.1f, min %.1f, max %.1f over %d runs)\n",
		sum.Mean, sum.Median, sum.Min, sum.Max, sum.N)
	fmt.Printf("degradation      %+.1f%% vs predicted\n", (sum.Mean-predicted)/predicted*100)
	if *mtbfFrac > 0 {
		fmt.Printf("failures         %.1f per run, %.1f task restarts per run\n",
			float64(failures)/float64(*runs), float64(restarts)/float64(*runs))
	}
}
