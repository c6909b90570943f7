package gridsched

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"
)

func TestGenerateInstanceAndRun(t *testing.T) {
	in, err := GenerateInstance("u_i_hihi.0")
	if err != nil {
		t.Fatal(err)
	}
	if in.T != 512 || in.M != 16 {
		t.Fatalf("benchmark dims %dx%d", in.T, in.M)
	}
	p := DefaultParams()
	p.GridW, p.GridH = 8, 8
	p.Threads = 2
	res, err := PACGA{Params: p}.Solve(context.Background(), in, Budget{MaxEvaluations: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestFitness <= 0 || !res.Best.Complete() {
		t.Fatal("degenerate result")
	}
}

func TestFacadeHeuristics(t *testing.T) {
	in, err := GenerateInstance("u_c_lolo.0")
	if err != nil {
		t.Fatal(err)
	}
	mm := MinMin(in)
	if !mm.Complete() {
		t.Fatal("MinMin incomplete")
	}
	if MaxMin(in).Makespan() <= 0 || Sufferage(in).Makespan() <= 0 {
		t.Fatal("degenerate heuristic output")
	}
	for _, name := range HeuristicNames() {
		h, err := HeuristicByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !h(in).Complete() {
			t.Fatalf("%s produced incomplete schedule", name)
		}
	}
	if _, err := HeuristicByName("nope"); err == nil {
		t.Fatal("bogus heuristic accepted")
	}
}

func TestFacadeInstanceIO(t *testing.T) {
	in, err := Generate(GenSpec{Class: Class{Consistency: Inconsistent, TaskHet: HighHet, MachineHet: LowHet}, Tasks: 10, Machines: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteInstance(in, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadInstance(in.Name, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.T != in.T || back.M != in.M {
		t.Fatal("round trip dims changed")
	}
}

func TestFacadeBaselines(t *testing.T) {
	in, err := GenerateInstance("u_s_lohi.0")
	if err != nil {
		t.Fatal(err)
	}
	st, err := StruggleSolver{Config: StruggleConfig{Seed: 1, SeedMinMin: true}}.Solve(context.Background(), in, Budget{MaxEvaluations: 1000})
	if err != nil {
		t.Fatal(err)
	}
	cm, err := CMALTHSolver{Config: CMALTHConfig{GridW: 8, GridH: 8, Seed: 1, SeedMinMin: true}}.Solve(context.Background(), in, Budget{MaxEvaluations: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if st.BestFitness <= 0 || cm.BestFitness <= 0 {
		t.Fatal("degenerate baseline results")
	}
}

func TestFacadeOperatorsByName(t *testing.T) {
	if _, err := CrossoverByName("tpx"); err != nil {
		t.Fatal(err)
	}
	if _, err := MutationByName("move"); err != nil {
		t.Fatal(err)
	}
	if _, err := NeighborhoodByName("L5"); err != nil {
		t.Fatal(err)
	}
	if got := H2LL(5).Name(); got != "h2ll/5" {
		t.Fatalf("H2LL name %q", got)
	}
}

func TestFacadeStats(t *testing.T) {
	b, err := NewBoxPlot([]float64{1, 2, 3, 4, 5})
	if err != nil || b.Median != 3 {
		t.Fatalf("box plot %+v, %v", b, err)
	}
	if _, _, err := RankSum([]float64{1, 2}, []float64{3, 4}); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeTable1(t *testing.T) {
	if !strings.Contains(Table1(), "16x16") {
		t.Fatal("Table1 output wrong")
	}
}

func TestFacadeRunSyncAndSchedules(t *testing.T) {
	in, err := GenerateInstance("u_c_hilo.0")
	if err != nil {
		t.Fatal(err)
	}
	s := RandomSchedule(in, 3)
	if !s.Complete() {
		t.Fatal("random schedule incomplete")
	}
	empty := NewSchedule(in)
	if empty.Complete() {
		t.Fatal("fresh schedule complete")
	}
	p := DefaultParams()
	p.GridW, p.GridH = 8, 8
	res, err := SyncCGA{Params: p}.Solve(context.Background(), in, Budget{MaxEvaluations: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Generations == 0 {
		t.Fatal("sync did nothing")
	}
}

func TestFacadeIslandsAndGenerational(t *testing.T) {
	in, err := GenerateInstance("u_i_lohi.0")
	if err != nil {
		t.Fatal(err)
	}
	isl, err := IslandSolver{Config: IslandConfig{Seed: 1, SeedMinMin: true}}.Solve(context.Background(), in, Budget{MaxGenerations: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := isl.Best.Validate(); err != nil {
		t.Fatal(err)
	}
	gen, err := GenerationalSolver{Config: GenerationalConfig{Seed: 1, PopSize: 32}}.Solve(context.Background(), in, Budget{MaxGenerations: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := gen.Best.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeSimulate(t *testing.T) {
	in, err := GenerateInstance("u_c_lolo.0")
	if err != nil {
		t.Fatal(err)
	}
	plan := MinMin(in)
	res, err := Simulate(in, plan, SimConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Makespan - res.PredictedMakespan; d > 1e-9*res.PredictedMakespan || d < -1e-9*res.PredictedMakespan {
		t.Fatalf("clean simulation %v != predicted %v", res.Makespan, res.PredictedMakespan)
	}
	noisy, err := Simulate(in, plan, SimConfig{Seed: 1, NoiseSigma: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if noisy.Makespan == res.Makespan {
		t.Fatal("noise had no effect through the facade")
	}
}

func TestFacadeDiversityStudy(t *testing.T) {
	in, err := Generate(GenSpec{Class: Class{Consistency: Inconsistent, TaskHet: HighHet, MachineHet: HighHet}, Tasks: 48, Machines: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	series, err := DiversityStudy(context.Background(), in, Scale{Runs: 1, BaseSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("%d series", len(series))
	}
	if !strings.Contains(RenderDiversity(series), "half-life") {
		t.Fatal("render missing half-life table")
	}
}

func TestFacadeExperimentScales(t *testing.T) {
	if CIScale().WallTime != 0 {
		t.Fatal("CI scale not deterministic")
	}
	if PaperScale().WallTime != 90*time.Second {
		t.Fatal("paper scale wrong")
	}
}
