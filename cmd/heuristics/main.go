// Command heuristics runs the classic constructive mapping heuristics
// (Min-min, Max-min, Sufferage, MCT, MET, OLB, LJFR-SJFR) on a benchmark
// instance and prints a ranked comparison — the fast baselines the paper
// positions against its metaheuristic. The heuristics are resolved
// through the unified solver registry, where they are registered as
// zero-budget solvers.
//
// Usage:
//
//	heuristics -instance u_i_hihi.0
//	heuristics -file my.etc -only minmin,sufferage
//	heuristics -list
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"

	"gridsched"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("heuristics: ")

	var (
		instName = flag.String("instance", "u_c_hihi.0", "benchmark instance name")
		file     = flag.String("file", "", "load instance from HCSP file instead of generating")
		only     = flag.String("only", "", "comma-separated subset of heuristics to run")
		list     = flag.Bool("list", false, "list every registered solver (heuristics and metaheuristics) and exit")
	)
	flag.Parse()

	if *list {
		for _, s := range gridsched.Solvers() {
			fmt.Printf("  %-14s %s\n", s.Name, s.Description)
		}
		return
	}

	var inst *gridsched.Instance
	var err error
	if *file != "" {
		f, ferr := os.Open(*file)
		if ferr != nil {
			log.Fatal(ferr)
		}
		inst, err = gridsched.ReadInstance(*file, f)
		f.Close()
	} else {
		inst, err = gridsched.GenerateInstance(*instName)
	}
	if err != nil {
		log.Fatal(err)
	}

	valid := map[string]bool{}
	for _, name := range gridsched.HeuristicNames() {
		valid[name] = true
	}
	names := gridsched.HeuristicNames()
	if *only != "" {
		names = strings.Split(*only, ",")
		for i, name := range names {
			names[i] = strings.TrimSpace(name)
			if !valid[names[i]] {
				log.Fatalf("unknown heuristic %q (have: %s)",
					names[i], strings.Join(gridsched.HeuristicNames(), ", "))
			}
		}
	}

	type row struct {
		name     string
		makespan float64
		flowtime float64
	}
	rows := make([]row, 0, len(names))
	for _, name := range names {
		// Zero-budget solvers: a single construction pass is the run.
		res, err := gridsched.Solve(context.Background(), name, inst, gridsched.SolveOptions{})
		if err != nil {
			log.Fatal(err)
		}
		rows = append(rows, row{name: name, makespan: res.Best.Makespan(), flowtime: res.Best.Flowtime()})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].makespan < rows[j].makespan })

	fmt.Printf("instance %s  (%s)\n\n", inst.Name, inst.Blazewicz())
	fmt.Printf("  %-12s %14s %16s\n", "heuristic", "makespan", "flowtime")
	for _, r := range rows {
		fmt.Printf("  %-12s %14.2f %16.2f\n", r.name, r.makespan, r.flowtime)
	}
}
