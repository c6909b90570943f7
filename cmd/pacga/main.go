// Command pacga runs the parallel asynchronous cellular genetic
// algorithm — or any of the library's other engines — on one benchmark
// instance (generated by name or loaded from a file) and prints the
// resulting schedule statistics.
//
// Usage:
//
//	pacga -instance u_i_hihi.0 -time 2s -threads 3
//	pacga -file my_instance.etc -evals 200000 -crossover opx -ls 5
//	pacga -engine islands -evals 100000
//	pacga -engine cma -time 1s
//	pacga -solver tabu -evals 50000
//	pacga -solver portfolio -time 2s
//	pacga -solver portfolio:ga+tabu+h2ll -evals 200000
//	pacga -list-solvers
//
// Engines: pacga (default), sync (synchronous cellular GA), islands
// (island model), struggle (Struggle GA), cma (cMA+LTH), generational
// (panmictic GA). The -engine path maps the PA-CGA operator flags onto
// each algorithm's configuration; -solver instead runs any registered
// solver (see -list-solvers) with its registered defaults under the
// shared budget flags — including the racing portfolio meta-solver
// ("portfolio", or an ad-hoc "portfolio:name+name+..." composition),
// whose per-constituent breakdown is printed after the run.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gridsched"
	"gridsched/internal/cliutil"
	"gridsched/internal/obs"
	"gridsched/internal/operators"
	"gridsched/internal/solver"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pacga: ")

	var (
		engine    = flag.String("engine", "pacga", "algorithm: pacga, sync, islands, struggle, cma or generational")
		solverF   = flag.String("solver", "", "run a registered solver by name with its default configuration (overrides -engine; see -list-solvers)")
		listSolv  = flag.Bool("list-solvers", false, "list the registered solvers and exit")
		instName  = flag.String("instance", "u_c_hihi.0", "benchmark instance name (u_x_yyzz.k)")
		file      = flag.String("file", "", "load instance from HCSP file instead of generating")
		threads   = flag.Int("threads", 3, "worker threads / population blocks (paper: 1..4)")
		wall      = flag.Duration("time", 2*time.Second, "wall-clock budget (0 to disable)")
		evals     = flag.Int64("evals", 0, "evaluation budget (0 to disable)")
		gens      = flag.Int64("gens", 0, "per-thread generation budget (0 to disable)")
		seed      = cliutil.SeedFlag()
		crossover = flag.String("crossover", "tpx", "crossover operator: opx, tpx or ux")
		mutation  = flag.String("mutation", "move", "mutation operator: move, swap or rebalance")
		lsIters   = flag.Int("ls", 10, "H2LL local search iterations (0 disables)")
		gridW     = flag.Int("grid-w", 16, "population grid width")
		gridH     = flag.Int("grid-h", 16, "population grid height")
		nbhd      = flag.String("neighborhood", "L5", "neighborhood: L5, C9 or L9")
		noSeedMM  = flag.Bool("no-minmin-seed", false, "disable the Min-min individual in the initial population")
		quiet     = flag.Bool("q", false, "print only the final makespan")
		convCSV   = flag.String("converge-csv", "", "write the run's convergence trace (evals, elapsed, best fitness; per lane for portfolios) to this CSV file")
		prof      = cliutil.ProfileFlags()
	)
	flag.Parse()

	if err := prof.Start(); err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			log.Print(err)
		}
	}()

	if *listSolv {
		for _, s := range gridsched.Solvers() {
			fmt.Printf("  %-14s %s\n", s.Name, s.Description)
		}
		return
	}

	// ^C (or SIGTERM) cancels the run through the solvers' budget
	// contexts: the engine stops at its next poll and the best-so-far
	// schedule is still reported. A second signal kills the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// With -converge-csv, an observer rides the context into whatever
	// engine runs, capturing every incumbent improvement for free.
	var rec *obs.Recorder
	if *convCSV != "" {
		rec = obs.NewRecorder(0)
		ctx = solver.WithObserver(ctx, rec)
	}

	inst, err := loadInstance(*file, *instName)
	if err != nil {
		log.Fatal(err)
	}

	p := gridsched.DefaultParams()
	p.GridW, p.GridH = *gridW, *gridH
	p.Threads = *threads
	p.Seed = *seed
	p.DisableMinMinSeed = *noSeedMM
	p.Local = operators.H2LL{Iterations: *lsIters}
	if p.Crossover, err = gridsched.CrossoverByName(*crossover); err != nil {
		log.Fatal(err)
	}
	if p.Mutation, err = gridsched.MutationByName(*mutation); err != nil {
		log.Fatal(err)
	}
	if p.Neighborhood, err = gridsched.NeighborhoodByName(*nbhd); err != nil {
		log.Fatal(err)
	}

	budget := gridsched.Budget{MaxDuration: *wall, MaxEvaluations: *evals, MaxGenerations: *gens}
	var res *gridsched.Result
	ran := *engine
	if *solverF != "" {
		ran = *solverF
		res, err = gridsched.Solve(ctx, *solverF, inst, gridsched.SolveOptions{Budget: budget, Seed: *seed})
	} else {
		res, err = runEngine(ctx, *engine, inst, p, budget)
	}
	if err != nil {
		log.Fatal(err)
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "pacga: interrupted; reporting best-so-far")
	}
	if rec != nil {
		if err := writeConvergenceCSV(*convCSV, ran, inst.Name, rec); err != nil {
			log.Fatal(err)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "pacga: wrote %d convergence events to %s\n", len(rec.Events()), *convCSV)
		}
	}
	if *quiet {
		fmt.Printf("%.4f\n", res.Best.Makespan())
		return
	}
	fmt.Printf("engine          %s\n", ran)
	fmt.Printf("instance        %s  (%s)\n", inst.Name, inst.Blazewicz())
	fmt.Printf("makespan        %.4f\n", res.Best.Makespan())
	fmt.Printf("flowtime        %.4f\n", res.Best.Flowtime())
	fmt.Printf("utilization     %.4f  (imbalance CV %.4f)\n", res.Best.Utilization(), res.Best.ImbalanceCV())
	fmt.Printf("evaluations     %d\n", res.Evaluations)
	fmt.Printf("generations     %d (per thread: %v)\n", res.Generations, res.PerThread)
	fmt.Printf("ls-moves        %d\n", res.LocalSearchMoves)
	fmt.Printf("duration        %v\n", res.Duration.Round(time.Millisecond))
	mm := gridsched.MinMin(inst).Makespan()
	fmt.Printf("vs Min-min      %.4f (%.2f%% better)\n", mm, (mm-res.BestFitness)/mm*100)
	if len(res.Constituents) > 0 {
		fmt.Printf("constituents    (racing portfolio breakdown)\n")
		for _, c := range res.Constituents {
			fmt.Printf("  %-12s evals %-9d rounds %-3d incumbent-improvements %-3d busy %v",
				c.Solver, c.Evaluations, c.Rounds, c.Improvements, c.Busy.Round(time.Millisecond))
			if c.BestFitness > 0 {
				fmt.Printf("  best %.4f", c.BestFitness)
			}
			if c.Err != "" {
				fmt.Printf("  error %s", c.Err)
			}
			fmt.Println()
		}
	}
}

// runEngine builds the chosen algorithm's typed solver, mapping the
// shared PA-CGA parameter set onto each engine's own configuration, and
// runs it under the budget.
func runEngine(ctx context.Context, engine string, inst *gridsched.Instance, p gridsched.Params, b gridsched.Budget) (*gridsched.Result, error) {
	var s gridsched.Solver
	switch engine {
	case "pacga":
		s = gridsched.PACGA{Params: p}
	case "sync":
		s = gridsched.SyncCGA{Params: p}
	case "islands":
		s = gridsched.IslandSolver{Config: gridsched.IslandConfig{
			Islands:      p.Threads,
			Neighborhood: p.Neighborhood,
			Selector:     p.Selector,
			Crossover:    p.Crossover,
			CrossProb:    p.CrossProb,
			Mutation:     p.Mutation,
			MutProb:      p.MutProb,
			Local:        p.Local,
			LocalProb:    p.LocalProb,
			SeedMinMin:   !p.DisableMinMinSeed,
			Seed:         p.Seed,
		}}
	case "struggle":
		s = gridsched.StruggleSolver{Config: gridsched.StruggleConfig{
			Crossover:  p.Crossover,
			Mutation:   p.Mutation,
			SeedMinMin: !p.DisableMinMinSeed,
			Seed:       p.Seed,
		}}
	case "cma":
		s = gridsched.CMALTHSolver{Config: gridsched.CMALTHConfig{
			GridW: p.GridW, GridH: p.GridH,
			SeedMinMin: !p.DisableMinMinSeed,
			Seed:       p.Seed,
		}}
	case "generational":
		s = gridsched.GenerationalSolver{Config: gridsched.GenerationalConfig{
			PopSize:    p.GridW * p.GridH,
			Crossover:  p.Crossover,
			Mutation:   p.Mutation,
			SeedMinMin: !p.DisableMinMinSeed,
			Seed:       p.Seed,
		}}
	default:
		return nil, fmt.Errorf("unknown engine %q (want pacga, sync, islands, struggle, cma or generational)", engine)
	}
	return s.Solve(ctx, inst, b)
}

// writeConvergenceCSV dumps the recorder's event series to path.
func writeConvergenceCSV(path, solverName, instName string, rec *obs.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteConvergenceCSV(f, solverName, instName, rec.Events(), true); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func loadInstance(file, name string) (*gridsched.Instance, error) {
	if file == "" {
		return gridsched.GenerateInstance(name)
	}
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return gridsched.ReadInstance(file, f)
}
