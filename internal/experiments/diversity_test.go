package experiments

import (
	"context"
	"strings"
	"testing"
)

func TestDiversityStudyShape(t *testing.T) {
	in := smallInstance(t, "u_i_hihi.0")
	sc := Scale{Runs: 5, BaseSeed: 5}
	series, err := DiversityStudy(context.Background(), in, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("%d series, want 3", len(series))
	}
	byName := map[string][]float64{}
	for _, s := range series {
		if len(s.Mean) == 0 {
			t.Fatalf("model %s produced no data", s.Model)
		}
		for g, v := range s.Mean {
			if v < 0 || v > 1 {
				t.Fatalf("%s diversity[%d] = %v outside [0,1]", s.Model, g, v)
			}
		}
		byName[s.Model] = s.Mean
	}
	cell := byName["cellular"]
	cell3 := byName["cellular-3t"]
	pan := byName["panmictic"]
	if cell == nil || cell3 == nil || pan == nil {
		t.Fatal("missing models")
	}
	// Every model's diversity must erode under selection.
	for name, s := range byName {
		if s[len(s)-1] >= s[0] {
			t.Fatalf("%s diversity did not decrease: %v -> %v", name, s[0], s[len(s)-1])
		}
	}
	// The robust structural effect: the block partition niches the
	// population, so the 3-thread cellular model retains at least as
	// much *global* diversity as the single-block cellular model. The
	// comparison is between means over sc.Runs seeds, so one seed's
	// interleaving cannot decide it. The race detector's scheduler skews
	// the asynchronous workers far outside realistic interleavings
	// (worker 0 can lap the others, so its global samples see a
	// population the unslowed algorithm never produces), so the
	// timing-sensitive comparison is skipped there.
	if !raceEnabled && cell3[len(cell3)-1] < cell[len(cell)-1]*0.8 {
		t.Fatalf("block partition destroyed diversity: 3t final %v vs 1t final %v (mean of %d seeds)",
			cell3[len(cell3)-1], cell[len(cell)-1], sc.Runs)
	}
	t.Logf("final diversity over %d seeds: 1t %.3f, 3t %.3f, panmictic %.3f",
		sc.Runs, cell[len(cell)-1], cell3[len(cell3)-1], pan[len(pan)-1])
}

func TestRenderDiversity(t *testing.T) {
	series := []DiversitySeries{
		{Model: "cellular", Mean: []float64{0.9, 0.8, 0.7}},
		{Model: "panmictic", Mean: []float64{0.9, 0.5, 0.2}},
	}
	out := RenderDiversity(series)
	for _, want := range []string{"cellular", "panmictic", "half-life"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	// Panmictic halves at generation 3 (0.2 <= 0.45); cellular never.
	if !strings.Contains(out, ">end") {
		t.Fatalf("half-life column wrong:\n%s", out)
	}
}

func TestMeanSeries(t *testing.T) {
	got := meanSeries([][]float64{{2, 4, 6}, {4, 6}})
	if len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Fatalf("meanSeries = %v", got)
	}
	if meanSeries(nil) != nil {
		t.Fatal("empty meanSeries not nil")
	}
}
