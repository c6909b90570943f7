// Operator study: a miniature version of the paper's Fig. 5 on a single
// instance. It compares the crossover operators (opx, tpx, ux) crossed
// with H2LL local-search budgets (0, 5, 10 iterations) over replicated
// runs, prints notched box plots, and tests the paper's headline claim —
// tpx/10 beats opx/5 — with the rank-sum test.
//
// Run with:
//
//	go run ./examples/operators
package main

import (
	"context"
	"fmt"
	"log"

	"gridsched"
)

const (
	runs   = 15
	budget = 15000 // evaluations per run: deterministic and fast
)

func main() {
	inst, err := gridsched.GenerateInstance("u_i_hihi.0")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("operator study on %s (%d runs x %d evaluations)\n\n", inst.Name, runs, budget)

	type config struct {
		label string
		cx    string
		ls    int
	}
	var configs []config
	for _, cx := range []string{"opx", "tpx", "ux"} {
		for _, ls := range []int{0, 5, 10} {
			configs = append(configs, config{fmt.Sprintf("%s/%d", cx, ls), cx, ls})
		}
	}

	samples := map[string][]float64{}
	for _, cfg := range configs {
		cx, err := gridsched.CrossoverByName(cfg.cx)
		if err != nil {
			log.Fatal(err)
		}
		ms := make([]float64, 0, runs)
		for run := 0; run < runs; run++ {
			p := gridsched.DefaultParams()
			p.Crossover = cx
			p.Local = gridsched.H2LL(cfg.ls)
			p.Seed = uint64(run) + 1
			res, err := gridsched.PACGA{Params: p}.Solve(context.Background(), inst,
				gridsched.Budget{MaxEvaluations: budget})
			if err != nil {
				log.Fatal(err)
			}
			ms = append(ms, res.BestFitness)
		}
		samples[cfg.label] = ms
	}

	// Box-plot summaries, best median first.
	fmt.Printf("  %-8s %14s %14s %14s\n", "config", "median", "mean", "notch width")
	for _, cfg := range configs {
		b, err := gridsched.NewBoxPlot(samples[cfg.label])
		if err != nil {
			log.Fatal(err)
		}
		mean := 0.0
		for _, v := range samples[cfg.label] {
			mean += v
		}
		mean /= float64(len(samples[cfg.label]))
		fmt.Printf("  %-8s %14.0f %14.0f %14.0f\n", cfg.label, b.Median, mean, b.NotchHi-b.NotchLo)
	}

	// The paper's §4.2 claim, re-tested here: tpx/10 < opx/5.
	_, p, err := gridsched.RankSum(samples["tpx/10"], samples["opx/5"])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrank-sum tpx/10 vs opx/5: p = %.4f", p)
	if p < 0.05 {
		fmt.Printf("  -> significant at 5%%\n")
	} else {
		fmt.Printf("  -> not significant at this (reduced) scale\n")
	}

	// Local search matters more than crossover choice: compare ls=0 vs
	// ls=10 pooled across crossovers.
	var ls0, ls10 []float64
	for _, cx := range []string{"opx", "tpx", "ux"} {
		ls0 = append(ls0, samples[cx+"/0"]...)
		ls10 = append(ls10, samples[cx+"/10"]...)
	}
	_, p2, err := gridsched.RankSum(ls10, ls0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rank-sum H2LL 10 vs 0 iterations (pooled): p = %.2g\n", p2)
}
