package experiments

import (
	"context"
	"fmt"
	"strings"

	"gridsched/internal/baselines"
	"gridsched/internal/core"
	"gridsched/internal/etc"
	"gridsched/internal/operators"
	"gridsched/internal/solver"
	"gridsched/internal/textplot"
)

// DiversitySeries is one population model's mean per-task Simpson
// diversity per generation, averaged over replications (truncated to the
// shortest replication).
type DiversitySeries struct {
	Model string
	Mean  []float64
}

// DiversityStudy quantifies §3.1's founding claim — cellular populations
// keep genotypic diversity longer than panmictic ones — by recording
// per-generation diversity for three models at equal population size and
// generation budget:
//
//   - "cellular" — the asynchronous cellular GA (PA-CGA with one thread);
//   - "cellular-3t" — PA-CGA with the paper's 3 threads, to show the
//     block partition does not destroy the effect;
//   - "panmictic" — the generational GA, where anyone mates with anyone.
//
// To isolate *population structure*, everything else is equalized: no
// Min-min super-individual, no local search (H2LL pulls every individual
// toward the same packing and would dominate the comparison), binary
// tournament selection and identical operator probabilities in all
// models. The only difference left is whether mating is restricted to an
// L5 neighborhood or global. Cancelling ctx stops the current run
// through the budget engine and aborts the study with the context's
// error.
func DiversityStudy(ctx context.Context, inst *etc.Instance, sc Scale) ([]DiversitySeries, error) {
	sc = sc.withDefaults()
	budget := solver.Budget{MaxGenerations: 40}

	cellular := func(threads int) func(seed uint64) ([]float64, error) {
		return func(seed uint64) ([]float64, error) {
			p := core.DefaultParams()
			p.Threads = threads
			p.Seed = seed
			p.LocalProb = 0
			p.Selector = operators.BinaryTournament{}
			p.CrossProb, p.MutProb = 0.9, 0.2
			p.DisableMinMinSeed = true
			p.RecordDiversity = true
			res, err := core.PACGA{Params: p}.Solve(ctx, inst, budget)
			if err != nil {
				return nil, err
			}
			return res.Diversity, nil
		}
	}
	type runner func(seed uint64) ([]float64, error)
	models := []struct {
		name string
		run  runner
	}{
		{"cellular", cellular(1)},
		{"cellular-3t", cellular(3)},
		{"panmictic", func(seed uint64) ([]float64, error) {
			res, err := baselines.GenerationalSolver{Config: baselines.GenerationalConfig{
				PopSize:         256,
				Seed:            seed,
				CrossProb:       0.9,
				MutProb:         0.2,
				RecordDiversity: true,
			}}.Solve(ctx, inst, budget)
			if err != nil {
				return nil, err
			}
			return res.Diversity, nil
		}},
	}

	out := make([]DiversitySeries, 0, len(models))
	for _, m := range models {
		var perRun [][]float64
		for run := 0; run < sc.Runs; run++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			series, err := m.run(sc.BaseSeed + uint64(run))
			if err != nil {
				return nil, err
			}
			if len(series) > 0 {
				perRun = append(perRun, series)
			}
		}
		out = append(out, DiversitySeries{Model: m.name, Mean: meanSeries(perRun)})
	}
	return out, nil
}

// meanSeries averages replicated series pointwise, truncating to the
// shortest replication.
func meanSeries(perRun [][]float64) []float64 {
	if len(perRun) == 0 {
		return nil
	}
	minLen := len(perRun[0])
	for _, s := range perRun[1:] {
		if len(s) < minLen {
			minLen = len(s)
		}
	}
	mean := make([]float64, minLen)
	for g := 0; g < minLen; g++ {
		sum := 0.0
		for _, s := range perRun {
			sum += s[g]
		}
		mean[g] = sum / float64(len(perRun))
	}
	return mean
}

// RenderDiversity renders the study as a line chart plus a half-life
// table (generations until diversity halves from its first sample).
func RenderDiversity(series []DiversitySeries) string {
	var b strings.Builder
	b.WriteString("Diversity study: population diversity vs generations (no local search)\n\n")
	var ts []textplot.Series
	for _, s := range series {
		if len(s.Mean) == 0 {
			continue
		}
		ps := textplot.Series{Name: s.Model}
		for g, v := range s.Mean {
			ps.X = append(ps.X, float64(g+1))
			ps.Y = append(ps.Y, v)
		}
		ts = append(ts, ps)
	}
	b.WriteString(textplot.LineChart("", ts, 64, 16))
	b.WriteString("\n  model        first    final    half-life (gens)\n")
	for _, s := range series {
		if len(s.Mean) == 0 {
			continue
		}
		half := -1
		for g, v := range s.Mean {
			if v <= s.Mean[0]/2 {
				half = g + 1
				break
			}
		}
		halfStr := ">end"
		if half > 0 {
			halfStr = fmt.Sprintf("%d", half)
		}
		fmt.Fprintf(&b, "  %-12s %6.3f   %6.3f    %s\n", s.Model, s.Mean[0], s.Mean[len(s.Mean)-1], halfStr)
	}
	return b.String()
}
