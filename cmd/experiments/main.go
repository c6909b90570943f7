// Command experiments regenerates the paper's evaluation: Table 1
// (parameterization), Fig. 4 (speedup), Fig. 5 (operator box plots),
// Table 2 (literature comparison) and Fig. 6 (convergence).
//
// By default everything runs at a laptop-friendly scale; -paper switches
// to the full 100×90 s protocol (hours to days of compute). Individual
// experiments are selected with flags:
//
//	experiments -table1
//	experiments -fig4 -wall 250ms -runs 10
//	experiments -fig5 -runs 20 -evals 30000
//	experiments -table2 -runs 10
//	experiments -fig6
//	experiments -all
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"gridsched"
	"gridsched/internal/cliutil"
	"gridsched/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	var (
		table1    = flag.Bool("table1", false, "print the Table 1 parameterization")
		fig4      = flag.Bool("fig4", false, "run the Fig. 4 speedup experiment")
		fig5      = flag.Bool("fig5", false, "run the Fig. 5 operator comparison")
		table2    = flag.Bool("table2", false, "run the Table 2 literature comparison")
		fig6      = flag.Bool("fig6", false, "run the Fig. 6 convergence experiment")
		diversity = flag.Bool("diversity", false, "run the cellular-vs-panmictic diversity study")
		all       = flag.Bool("all", false, "run everything")
		paper     = flag.Bool("paper", false, "use the paper's full budgets (100 runs x 90s; very slow)")

		runs     = flag.Int("runs", 0, "override replication count")
		wall     = flag.Duration("wall", 0, "override wall budget per run (enables time-based stop)")
		evals    = flag.Int64("evals", 0, "override evaluation budget per run")
		threads  = flag.Int("threads", 0, "override thread count for fig5/table2")
		instance = flag.String("instance", "u_c_hihi.0", "instance for fig4/fig6")
		seed     = cliutil.SeedFlag()
		csvDir   = flag.String("csv-dir", "", "also write raw results as CSV files into this directory")
	)
	flag.Parse()

	if !(*table1 || *fig4 || *fig5 || *table2 || *fig6 || *diversity || *all) {
		flag.Usage()
		os.Exit(2)
	}

	// ^C (or SIGTERM) aborts the running experiment cleanly: the
	// in-flight run stops through its budget context and the experiment
	// returns context.Canceled instead of a half-averaged table.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	sc := gridsched.CIScale()
	if *paper {
		sc = gridsched.PaperScale()
	}
	if *runs > 0 {
		sc.Runs = *runs
	}
	if *wall > 0 {
		sc.WallTime = *wall
		sc.Evaluations = 0
	}
	if *evals > 0 {
		sc.Evaluations = *evals
		if *wall == 0 {
			sc.WallTime = 0
		}
	}
	if *threads > 0 {
		sc.Threads = *threads
	}
	sc.BaseSeed = *seed

	if *table1 || *all {
		fmt.Println(gridsched.Table1())
	}

	if *fig4 || *all {
		fsc := sc
		if fsc.WallTime <= 0 {
			// Fig. 4 is a throughput measurement; it needs wall time.
			fsc.WallTime = 250 * time.Millisecond
			fmt.Printf("(fig4: no -wall given; using %v per run)\n\n", fsc.WallTime)
		}
		inst, err := gridsched.GenerateInstance(*instance)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		rows, err := gridsched.Fig4(ctx, inst, fsc)
		check(err)
		fmt.Println(gridsched.RenderFig4(rows))
		writeCSV(*csvDir, "fig4.csv", func(w io.Writer) error { return experiments.WriteFig4CSV(w, rows) })
		fmt.Printf("(fig4 completed in %v)\n\n", time.Since(start).Round(time.Millisecond))
	}

	if *fig5 || *all {
		suite, err := gridsched.BenchmarkSuite()
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		cells, err := gridsched.Fig5(ctx, suite, sc)
		check(err)
		fmt.Println(gridsched.RenderFig5(cells))
		writeCSV(*csvDir, "fig5.csv", func(w io.Writer) error { return experiments.WriteFig5CSV(w, cells) })
		fmt.Printf("(fig5 completed in %v)\n\n", time.Since(start).Round(time.Millisecond))
	}

	if *table2 || *all {
		suite, err := gridsched.BenchmarkSuite()
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		rows, err := gridsched.Table2(ctx, suite, sc, experiments.Table2Comparators)
		check(err)
		fmt.Println(gridsched.RenderTable2(rows))
		wins := 0
		for _, r := range rows {
			if r.BestIsPACGA() {
				wins++
			}
		}
		fmt.Printf("PA-CGA holds the row best on %d/%d instances\n", wins, len(rows))
		writeCSV(*csvDir, "table2.csv", func(w io.Writer) error { return experiments.WriteTable2CSV(w, rows) })
		fmt.Printf("(table2 completed in %v)\n\n", time.Since(start).Round(time.Millisecond))
	}

	if *fig6 || *all {
		inst, err := gridsched.GenerateInstance(*instance)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		series, err := gridsched.Fig6(ctx, inst, sc)
		check(err)
		fmt.Println(gridsched.RenderFig6(series))
		writeCSV(*csvDir, "fig6.csv", func(w io.Writer) error { return experiments.WriteFig6CSV(w, series) })
		fmt.Printf("(fig6 completed in %v)\n", time.Since(start).Round(time.Millisecond))
	}

	if *diversity || *all {
		inst, err := gridsched.GenerateInstance(*instance)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		series, err := gridsched.DiversityStudy(ctx, inst, sc)
		check(err)
		fmt.Println(gridsched.RenderDiversity(series))
		fmt.Printf("(diversity completed in %v)\n", time.Since(start).Round(time.Millisecond))
	}
}

// check aborts on error, mapping cancellation to a clean interrupt
// message.
func check(err error) {
	if err == nil {
		return
	}
	if errors.Is(err, context.Canceled) {
		log.Fatal("interrupted")
	}
	log.Fatal(err)
}

// writeCSV saves one experiment's raw results when -csv-dir is set.
func writeCSV(dir, name string, write func(io.Writer) error) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := write(f); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("(wrote %s)\n", path)
}
