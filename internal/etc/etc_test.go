package etc

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseClassRoundTrip(t *testing.T) {
	for _, name := range []string{
		"u_c_hihi.0", "u_c_hilo.0", "u_c_lohi.0", "u_c_lolo.0",
		"u_i_hihi.0", "u_i_hilo.3", "u_i_lohi.0", "u_i_lolo.0",
		"u_s_hihi.0", "u_s_hilo.0", "u_s_lohi.11", "u_s_lolo.0",
	} {
		cl, err := ParseClass(name)
		if err != nil {
			t.Fatalf("ParseClass(%q): %v", name, err)
		}
		if got := cl.Name(); got != name {
			t.Fatalf("round trip %q -> %q", name, got)
		}
	}
}

func TestParseClassErrors(t *testing.T) {
	for _, name := range []string{
		"", "u_c", "x_c_hihi.0", "u_q_hihi.0", "u_c_xxhi.0",
		"u_c_hixx.0", "u_c_hihi.z", "u_c_hihihi.0",
	} {
		if _, err := ParseClass(name); err == nil {
			t.Fatalf("ParseClass(%q) unexpectedly succeeded", name)
		}
	}
}

func TestAllClassesCount(t *testing.T) {
	cls := AllClasses()
	if len(cls) != 12 {
		t.Fatalf("AllClasses returned %d classes, want 12", len(cls))
	}
	seen := map[string]bool{}
	for _, cl := range cls {
		if seen[cl.Name()] {
			t.Fatalf("duplicate class %s", cl.Name())
		}
		seen[cl.Name()] = true
	}
}

func TestGenerateDimensionsAndValidity(t *testing.T) {
	for _, cl := range AllClasses() {
		in, err := Generate(GenSpec{Class: cl, Tasks: 64, Machines: 8, Seed: 1})
		if err != nil {
			t.Fatalf("Generate(%s): %v", cl.Name(), err)
		}
		if in.T != 64 || in.M != 8 {
			t.Fatalf("Generate(%s): dims %dx%d", cl.Name(), in.T, in.M)
		}
		if err := in.Validate(); err != nil {
			t.Fatalf("Generate(%s): invalid instance: %v", cl.Name(), err)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := GenSpec{Class: Class{Consistency: Inconsistent, TaskHet: High, MachineHet: High}, Tasks: 32, Machines: 4, Seed: 7}
	a, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Row {
		if a.Row[i] != b.Row[i] {
			t.Fatalf("same spec, different matrices at %d", i)
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	cl := Class{Consistency: Inconsistent, TaskHet: High, MachineHet: High}
	a, _ := Generate(GenSpec{Class: cl, Tasks: 32, Machines: 4, Seed: 1})
	b, _ := Generate(GenSpec{Class: cl, Tasks: 32, Machines: 4, Seed: 2})
	same := 0
	for i := range a.Row {
		if a.Row[i] == b.Row[i] {
			same++
		}
	}
	if same == len(a.Row) {
		t.Fatal("different seeds produced identical matrices")
	}
}

func TestConsistentRowsSorted(t *testing.T) {
	in, err := Generate(GenSpec{Class: Class{Consistency: Consistent, TaskHet: High, MachineHet: High}, Tasks: 50, Machines: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for task := 0; task < in.T; task++ {
		for m := 1; m < in.M; m++ {
			if in.ETC(task, m-1) > in.ETC(task, m) {
				t.Fatalf("consistent instance has unsorted row %d at column %d", task, m)
			}
		}
	}
}

// TestConsistentDominance verifies the defining property quoted in §4.1:
// if machine a is faster than machine b for one task, it is faster for
// all tasks.
func TestConsistentDominance(t *testing.T) {
	in, err := Generate(GenSpec{Class: Class{Consistency: Consistent, TaskHet: Low, MachineHet: High}, Tasks: 40, Machines: 8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < in.M; a++ {
		for b := a + 1; b < in.M; b++ {
			fasterForAll, slowerForAll := true, true
			for task := 0; task < in.T; task++ {
				if in.ETC(task, a) > in.ETC(task, b) {
					fasterForAll = false
				}
				if in.ETC(task, a) < in.ETC(task, b) {
					slowerForAll = false
				}
			}
			if !fasterForAll && !slowerForAll {
				t.Fatalf("machines %d,%d are not consistently ordered", a, b)
			}
		}
	}
}

func TestSemiConsistentEvenColumnsSorted(t *testing.T) {
	in, err := Generate(GenSpec{Class: Class{Consistency: SemiConsistent, TaskHet: High, MachineHet: Low}, Tasks: 30, Machines: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for task := 0; task < in.T; task++ {
		prev := math.Inf(-1)
		for m := 0; m < in.M; m += 2 {
			v := in.ETC(task, m)
			if v < prev {
				t.Fatalf("semi-consistent even columns unsorted in row %d", task)
			}
			prev = v
		}
	}
}

func TestInconsistentIsActuallyInconsistent(t *testing.T) {
	in, err := Generate(GenSpec{Class: Class{Consistency: Inconsistent, TaskHet: High, MachineHet: High}, Tasks: 100, Machines: 16, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	// With 100 tasks and high heterogeneity the probability that the first
	// two machines are consistently ordered by chance is ~2^-99.
	aFaster, bFaster := false, false
	for task := 0; task < in.T; task++ {
		if in.ETC(task, 0) < in.ETC(task, 1) {
			aFaster = true
		} else if in.ETC(task, 0) > in.ETC(task, 1) {
			bFaster = true
		}
	}
	if !(aFaster && bFaster) {
		t.Fatal("inconsistent instance looks consistent between machines 0 and 1")
	}
}

// TestHeterogeneityRanges checks the generated value ranges match the
// published p_j bounds of each class family (§4.1 Blazewicz list): the
// maxima must approach φ_b·φ_r and never exceed it.
func TestHeterogeneityRanges(t *testing.T) {
	cases := []struct {
		th, mh Heterogeneity
		limit  float64
		floor  float64 // max must exceed this, or the draw is implausibly narrow
	}{
		{High, High, 3000 * 1000, 1000 * 300},
		{High, Low, 3000 * 10, 10 * 1000},
		{Low, High, 100 * 1000, 1000 * 30},
		{Low, Low, 100 * 10, 300},
	}
	for _, cse := range cases {
		cl := Class{Consistency: Inconsistent, TaskHet: cse.th, MachineHet: cse.mh}
		in, err := Generate(GenSpec{Class: cl, Seed: classSeed(cl)})
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := in.MinMaxETC()
		if lo < 1 {
			t.Fatalf("%s: min %v below 1", cl.Name(), lo)
		}
		if hi > cse.limit {
			t.Fatalf("%s: max %v exceeds theoretical limit %v", cl.Name(), hi, cse.limit)
		}
		if hi < cse.floor {
			t.Fatalf("%s: max %v implausibly small (floor %v)", cl.Name(), hi, cse.floor)
		}
	}
}

// TestETCReadsRow pins the accessors to the task-major plane: ETC(t, m)
// and TaskCosts(t)[m] both read Row[t*M+m].
func TestETCReadsRow(t *testing.T) {
	in, err := Generate(GenSpec{Class: Class{Consistency: SemiConsistent, TaskHet: High, MachineHet: High}, Tasks: 20, Machines: 6, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	for task := 0; task < in.T; task++ {
		tc := in.TaskCosts(task)
		if len(tc) != in.M {
			t.Fatalf("TaskCosts(%d) length %d, want %d", task, len(tc), in.M)
		}
		for m := 0; m < in.M; m++ {
			if v := in.Row[task*in.M+m]; in.ETC(task, m) != v || tc[m] != v {
				t.Fatalf("accessors disagree with Row at (%d,%d)", task, m)
			}
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	in, err := Generate(GenSpec{Class: Class{Consistency: Consistent, TaskHet: High, MachineHet: Low}, Tasks: 25, Machines: 7, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := in.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(in.Name, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.T != in.T || back.M != in.M {
		t.Fatalf("round trip dims %dx%d, want %dx%d", back.T, back.M, in.T, in.M)
	}
	for i := range in.Row {
		if in.Row[i] != back.Row[i] {
			t.Fatalf("round trip value mismatch at %d: %v vs %v", i, in.Row[i], back.Row[i])
		}
	}
}

func TestReadSizedHeaderless(t *testing.T) {
	text := "1.5\n2.5\n3.5\n4.5\n5.5\n6.5\n"
	in, err := ReadSized("u_i_lolo.0", 3, 2, strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if in.ETC(0, 0) != 1.5 || in.ETC(2, 1) != 6.5 {
		t.Fatalf("ReadSized parsed wrong values: %v", in.Row)
	}
	if in.ClassTag.Name() != "u_i_lolo.0" {
		t.Fatalf("class tag not recovered from name: %v", in.ClassTag)
	}
}

func TestReadErrors(t *testing.T) {
	if _, err := Read("x", strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := Read("x", strings.NewReader("2 2\n1\n2\n3\n")); err == nil {
		t.Fatal("short matrix accepted")
	}
	if _, err := Read("x", strings.NewReader("2 2\n1\nbogus\n3\n4\n")); err == nil {
		t.Fatal("non-numeric value accepted")
	}
	if _, err := Read("x", strings.NewReader("not a header\n")); err == nil {
		t.Fatal("bad header accepted")
	}
}

func TestNewRejectsBadInput(t *testing.T) {
	if _, err := New("x", 2, 2, []float64{1, 2, 3}); err == nil {
		t.Fatal("wrong-sized matrix accepted")
	}
	if _, err := New("x", 2, 2, []float64{1, 2, 3, -4}); err == nil {
		t.Fatal("negative ETC accepted")
	}
	if _, err := New("x", 2, 2, []float64{1, 2, 3, 0}); err == nil {
		t.Fatal("zero ETC accepted")
	}
	if _, err := New("x", 2, 2, []float64{1, 2, 3, math.Inf(1)}); err == nil {
		t.Fatal("infinite ETC accepted")
	}
}

func TestWithReady(t *testing.T) {
	in, _ := Generate(GenSpec{Class: Class{Consistency: Inconsistent, TaskHet: Low, MachineHet: Low}, Tasks: 8, Machines: 4, Seed: 11})
	r2, err := in.WithReady([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Ready[2] != 3 {
		t.Fatalf("ready times not applied: %v", r2.Ready)
	}
	if in.Ready[2] != 0 {
		t.Fatal("WithReady mutated the original")
	}
	if _, err := in.WithReady([]float64{1}); err == nil {
		t.Fatal("wrong-length ready accepted")
	}
	if _, err := in.WithReady([]float64{1, 2, 3, -1}); err == nil {
		t.Fatal("negative ready accepted")
	}
}

func TestBlazewiczNotation(t *testing.T) {
	cons, _ := Generate(GenSpec{Class: Class{Consistency: Consistent, TaskHet: Low, MachineHet: Low}, Seed: 1})
	if !strings.HasPrefix(cons.Blazewicz(), "Q16|") {
		t.Fatalf("consistent notation %q should start with Q16|", cons.Blazewicz())
	}
	inc, _ := Generate(GenSpec{Class: Class{Consistency: Inconsistent, TaskHet: Low, MachineHet: Low}, Seed: 1})
	if !strings.HasPrefix(inc.Blazewicz(), "R16|") {
		t.Fatalf("inconsistent notation %q should start with R16|", inc.Blazewicz())
	}
	if !strings.HasSuffix(inc.Blazewicz(), "|Cmax") {
		t.Fatalf("notation %q should end with |Cmax", inc.Blazewicz())
	}
}

func TestBenchmarkSuite(t *testing.T) {
	suite, err := Benchmark()
	if err != nil {
		t.Fatal(err)
	}
	if len(suite) != 12 {
		t.Fatalf("suite has %d instances, want 12", len(suite))
	}
	for _, in := range suite {
		if in.T != DefaultTasks || in.M != DefaultMachines {
			t.Fatalf("%s: dims %dx%d, want %dx%d", in.Name, in.T, in.M, DefaultTasks, DefaultMachines)
		}
		if err := in.Validate(); err != nil {
			t.Fatalf("%s: %v", in.Name, err)
		}
	}
}

func TestGenerateByNameStable(t *testing.T) {
	a, err := GenerateByName("u_s_hilo.0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateByName("u_s_hilo.0")
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Row {
		if a.Row[i] != b.Row[i] {
			t.Fatal("GenerateByName is not stable")
		}
	}
	if _, err := GenerateByName("garbage"); err == nil {
		t.Fatal("GenerateByName accepted garbage")
	}
}

// Property: generated matrices are valid for arbitrary (small) dims and
// any seed.
func TestGenerateProperty(t *testing.T) {
	f := func(seed uint64, tRaw, mRaw uint8, cons uint8) bool {
		tn := int(tRaw)%40 + 1
		mn := int(mRaw)%12 + 1
		cl := Class{Consistency: Consistency(cons % 3), TaskHet: High, MachineHet: Low}
		in, err := Generate(GenSpec{Class: cl, Tasks: tn, Machines: mn, Seed: seed})
		if err != nil {
			return false
		}
		return in.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGenerate512x16(b *testing.B) {
	cl := Class{Consistency: Consistent, TaskHet: High, MachineHet: High}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(GenSpec{Class: cl, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSizedNameDefaults(t *testing.T) {
	cl := Class{Consistency: Consistent, TaskHet: High, MachineHet: Low}
	cases := []struct {
		tasks, machines int
		want            string
	}{
		{0, 0, "u_c_hilo.0"},
		{DefaultTasks, DefaultMachines, "u_c_hilo.0"},
		{0, 8, "u_c_hilo.0@512x8"}, // one zero dim folds to its default
		{128, 0, "u_c_hilo.0@128x16"},
		{128, 8, "u_c_hilo.0@128x8"},
	}
	for _, c := range cases {
		name := SizedName(cl, c.tasks, c.machines)
		if name != c.want {
			t.Errorf("SizedName(%d, %d) = %q, want %q", c.tasks, c.machines, name, c.want)
		}
		// Every rendered name must be generable.
		in, err := GenerateByName(name)
		if err != nil {
			t.Errorf("GenerateByName(%q): %v", name, err)
			continue
		}
		if in.Name != name {
			t.Errorf("GenerateByName(%q) produced Name %q", name, in.Name)
		}
	}
}

func TestGenerateByNameSized(t *testing.T) {
	in, err := GenerateByName("u_i_hihi.0@64x4")
	if err != nil {
		t.Fatal(err)
	}
	if in.T != 64 || in.M != 4 {
		t.Fatalf("sized generation produced %dx%d, want 64x4", in.T, in.M)
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	// Same class+size regenerates identically (the cache contract).
	again, err := GenerateByName("u_i_hihi.0@64x4")
	if err != nil {
		t.Fatal(err)
	}
	for i := range in.Row {
		if in.Row[i] != again.Row[i] {
			t.Fatalf("sized generation not deterministic at entry %d", i)
		}
	}
	// Hostile sizes are rejected, not allocated.
	for _, name := range []string{"u_c_hihi.0@-1x8", "u_c_hihi.0@999999999x999999999", "u_c_hihi.0@0x0"} {
		if _, err := GenerateByName(name); err == nil {
			t.Errorf("GenerateByName(%q) accepted hostile size", name)
		}
	}
}
