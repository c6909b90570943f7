// Package etc implements the Expected Time to Compute (ETC) model of
// Braun et al. used by the paper to describe batch scheduling instances:
// a set of independent tasks, a set of heterogeneous machines, and a
// tasks×machines matrix where entry (t, m) is the expected execution time
// of task t on machine m.
//
// The package provides
//
//   - the Instance type holding the matrix in task-major order, with a
//     slice accessor for one task's costs on every machine;
//   - the Braun/Ali benchmark instance generator (uniform range-based
//     method with task heterogeneity, machine heterogeneity and the
//     consistent / semi-consistent / inconsistent matrix classes);
//   - parsing and serialization of the classic HCSP text format;
//   - per-machine ready times (§2.2) and the Blazewicz-notation summary
//     the paper uses to describe its 12 benchmark instances.
package etc

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"gridsched/internal/rng"
)

// Consistency classifies an ETC matrix following Braun et al. (§4.1).
type Consistency int

const (
	// Consistent: if machine a runs one task faster than machine b, it
	// runs every task faster (rows sorted against a common machine order).
	Consistent Consistency = iota
	// Inconsistent: machine relative speed varies per task.
	Inconsistent
	// SemiConsistent: an inconsistent matrix embedding a consistent
	// sub-matrix (even-indexed columns of every row are mutually sorted).
	SemiConsistent
)

// String returns the single-letter code used in instance names
// (c, i or s).
func (c Consistency) String() string {
	switch c {
	case Consistent:
		return "c"
	case Inconsistent:
		return "i"
	case SemiConsistent:
		return "s"
	default:
		return "?"
	}
}

// ParseConsistency converts the instance-name letter to a Consistency.
func ParseConsistency(s string) (Consistency, error) {
	switch s {
	case "c":
		return Consistent, nil
	case "i":
		return Inconsistent, nil
	case "s":
		return SemiConsistent, nil
	}
	return 0, fmt.Errorf("etc: unknown consistency code %q (want c, i or s)", s)
}

// Heterogeneity is the hi/lo qualifier applied separately to tasks and to
// machines in the Braun instance classes.
type Heterogeneity int

const (
	// Low heterogeneity.
	Low Heterogeneity = iota
	// High heterogeneity.
	High
)

// String returns the two-letter code used in instance names (lo or hi).
func (h Heterogeneity) String() string {
	if h == High {
		return "hi"
	}
	return "lo"
}

// ParseHeterogeneity converts the instance-name code to a Heterogeneity.
func ParseHeterogeneity(s string) (Heterogeneity, error) {
	switch s {
	case "hi":
		return High, nil
	case "lo":
		return Low, nil
	}
	return 0, fmt.Errorf("etc: unknown heterogeneity code %q (want hi or lo)", s)
}

// Range multipliers of the classic range-based generation method. Task
// baseline values are drawn from U(1, φ_b) and each row is scaled by
// independent draws of U(1, φ_r). These constants reproduce the published
// value ranges of the u_x_yyzz.k instances (e.g. hihi ⇒ values up to
// ~3 000 × 1 000 = 3·10⁶, matching the paper's p_j ≤ 2 968 769).
const (
	TaskHeterogeneityLow  = 100
	TaskHeterogeneityHigh = 3000
	MachHeterogeneityLow  = 10
	MachHeterogeneityHigh = 1000
)

// Class identifies one of the 12 Braun benchmark families plus the
// instance index k, e.g. u_c_hihi.0.
type Class struct {
	Consistency Consistency
	TaskHet     Heterogeneity
	MachineHet  Heterogeneity
	Index       int
}

// Name renders the canonical instance name, e.g. "u_c_hihi.0".
func (c Class) Name() string {
	return fmt.Sprintf("u_%s_%s%s.%d", c.Consistency, c.TaskHet, c.MachineHet, c.Index)
}

// ParseClass parses names of the form u_x_yyzz.k.
func ParseClass(name string) (Class, error) {
	var cl Class
	base := name
	if i := strings.LastIndexByte(base, '.'); i >= 0 {
		idx, err := strconv.Atoi(base[i+1:])
		if err != nil {
			return cl, fmt.Errorf("etc: bad instance index in %q: %v", name, err)
		}
		cl.Index = idx
		base = base[:i]
	}
	parts := strings.Split(base, "_")
	if len(parts) != 3 || parts[0] != "u" || len(parts[2]) != 4 {
		return cl, fmt.Errorf("etc: malformed instance name %q (want u_x_yyzz.k)", name)
	}
	cons, err := ParseConsistency(parts[1])
	if err != nil {
		return cl, err
	}
	th, err := ParseHeterogeneity(parts[2][:2])
	if err != nil {
		return cl, err
	}
	mh, err := ParseHeterogeneity(parts[2][2:])
	if err != nil {
		return cl, err
	}
	cl.Consistency, cl.TaskHet, cl.MachineHet = cons, th, mh
	return cl, nil
}

// AllClasses returns the 12 instance families of the paper's benchmark
// (index 0), in the order Table 2 lists them grouped by consistency.
func AllClasses() []Class {
	var out []Class
	for _, cons := range []Consistency{Consistent, SemiConsistent, Inconsistent} {
		for _, th := range []Heterogeneity{High, High, Low, Low} {
			_ = th
		}
		for _, pair := range [][2]Heterogeneity{{High, High}, {High, Low}, {Low, High}, {Low, Low}} {
			out = append(out, Class{Consistency: cons, TaskHet: pair[0], MachineHet: pair[1]})
		}
	}
	return out
}

// maxMatrixEntries is the hard ceiling on tasks×machines accepted from
// external inputs (parsed files, sized instance names). It bounds the
// allocation a hostile header like "999999999 999999999" could trigger
// while leaving room far beyond the 4096×64 future-work benchmarks.
const maxMatrixEntries = 1 << 24

// checkDims validates externally supplied matrix dimensions: positive
// and small enough that tasks×machines cannot overflow or exhaust
// memory.
func checkDims(tasks, machines int) error {
	if tasks <= 0 || machines <= 0 {
		return fmt.Errorf("etc: non-positive dimensions %dx%d", tasks, machines)
	}
	if tasks > maxMatrixEntries/machines {
		return fmt.Errorf("etc: %dx%d matrix exceeds the %d-entry limit", tasks, machines, maxMatrixEntries)
	}
	return nil
}

// SizedName renders the sized instance-name form "u_x_yyzz.k@TxM" used
// by the instance cache and the scenario sweep to key one class at
// explicit dimensions. At the benchmark dimensions (or when either dim
// is zero) it renders the plain class name, so sized and classic names
// coincide for the paper's 512×16 suite.
func SizedName(cl Class, tasks, machines int) string {
	if tasks <= 0 {
		tasks = DefaultTasks
	}
	if machines <= 0 {
		machines = DefaultMachines
	}
	if tasks == DefaultTasks && machines == DefaultMachines {
		return cl.Name()
	}
	return fmt.Sprintf("%s@%dx%d", cl.Name(), tasks, machines)
}

// ParseSizedName parses "u_x_yyzz.k" or "u_x_yyzz.k@TxM". Zero
// dimensions are returned for the plain form (callers default them);
// explicit dimensions are validated against checkDims.
func ParseSizedName(name string) (cl Class, tasks, machines int, err error) {
	base := name
	if i := strings.IndexByte(name, '@'); i >= 0 {
		base = name[:i]
		dims := name[i+1:]
		x := strings.IndexByte(dims, 'x')
		if x < 0 {
			return cl, 0, 0, fmt.Errorf("etc: malformed size suffix in %q (want @TxM)", name)
		}
		if tasks, err = strconv.Atoi(dims[:x]); err != nil {
			return cl, 0, 0, fmt.Errorf("etc: bad task count in %q: %v", name, err)
		}
		if machines, err = strconv.Atoi(dims[x+1:]); err != nil {
			return cl, 0, 0, fmt.Errorf("etc: bad machine count in %q: %v", name, err)
		}
		if err = checkDims(tasks, machines); err != nil {
			return cl, 0, 0, err
		}
	}
	cl, err = ParseClass(base)
	if err != nil {
		return cl, 0, 0, err
	}
	return cl, tasks, machines, nil
}

// Instance is an immutable scheduling instance under the ETC model.
//
// The matrix is stored once, task-major: Row[t*M+m] is ETC[t][m], so
// one task's costs on every machine are contiguous. The paper (§3.3)
// stores the transpose because its evaluation loop sums the tasks of
// one machine; this engine never sweeps that way. It moves completion
// times incrementally per task and bulk-loads them in one task-ordered
// pass, so every hot reader walks the machines of a fixed task.
type Instance struct {
	Name     string
	T        int // number of tasks
	M        int // number of machines
	Row      []float64
	Ready    []float64 // per-machine ready times (§2.2); zero by default
	ClassTag Class     // zero value when the instance was not generated
}

// ETC returns the expected time to compute task t on machine m.
func (in *Instance) ETC(t, m int) float64 { return in.Row[t*in.M+m] }

// TaskCosts returns the costs of task t on every machine — contiguous
// in m (Row[t*M : (t+1)*M]). Hot loops that sweep machines for a fixed
// task (move scoring, best-completion scans) must read through this
// slice instead of per-element ETC calls: one slice bounds check then
// covers the whole sweep, where ETC recomputes the index and checks it
// per machine. The slice aliases the instance storage and must not be
// modified.
func (in *Instance) TaskCosts(t int) []float64 { return in.Row[t*in.M : (t+1)*in.M] }

// Validate checks structural invariants: positive dimensions, a matrix
// of T×M entries, strictly positive finite entries and non-negative
// ready times.
func (in *Instance) Validate() error {
	if in.T <= 0 || in.M <= 0 {
		return fmt.Errorf("etc: non-positive dimensions %dx%d", in.T, in.M)
	}
	if len(in.Row) != in.T*in.M {
		return fmt.Errorf("etc: matrix has %d entries, want %d", len(in.Row), in.T*in.M)
	}
	if len(in.Ready) != in.M {
		return fmt.Errorf("etc: ready times length %d, want %d", len(in.Ready), in.M)
	}
	for i, v := range in.Row {
		if !(v > 0) || math.IsInf(v, 0) {
			return fmt.Errorf("etc: ETC[%d][%d] = %v is not a positive finite value", i/in.M, i%in.M, v)
		}
	}
	for m, r := range in.Ready {
		if r < 0 || math.IsNaN(r) {
			return fmt.Errorf("etc: ready[%d] = %v negative or NaN", m, r)
		}
	}
	return nil
}

// New builds an instance from a row-major matrix with zero ready
// times. The row slice is copied.
func New(name string, tasks, machines int, row []float64) (*Instance, error) {
	if err := checkDims(tasks, machines); err != nil {
		return nil, err
	}
	if len(row) != tasks*machines {
		return nil, fmt.Errorf("etc: matrix has %d entries, want %d", len(row), tasks*machines)
	}
	in := &Instance{
		Name:  name,
		T:     tasks,
		M:     machines,
		Row:   append([]float64(nil), row...),
		Ready: make([]float64, machines),
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}

// WithReady returns a shallow copy of the instance carrying the given
// per-machine ready times (the matrix buffers are shared).
func (in *Instance) WithReady(ready []float64) (*Instance, error) {
	if len(ready) != in.M {
		return nil, fmt.Errorf("etc: %d ready times for %d machines", len(ready), in.M)
	}
	cp := *in
	cp.Ready = append([]float64(nil), ready...)
	if err := cp.Validate(); err != nil {
		return nil, err
	}
	return &cp, nil
}

// MinMaxETC returns the smallest and largest matrix entries; these are the
// p_j bounds the paper quotes in Blazewicz notation.
func (in *Instance) MinMaxETC() (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range in.Row {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// Blazewicz renders the α|β|γ summary used in §4.1, e.g.
// "Q16|1.44 ≤ pj ≤ 975.30|Cmax" for consistent matrices (uniformly
// ordered machines) and R16|...|Cmax for unrelated machines. The α field
// is derived from the matrix itself, so imported files classify
// correctly regardless of their name.
func (in *Instance) Blazewicz() string {
	alpha := "R"
	if in.consistentPairs(true) == in.M*(in.M-1)/2 {
		alpha = "Q"
	}
	lo, hi := in.MinMaxETC()
	return fmt.Sprintf("%s%d|%.2f ≤ pj ≤ %.2f|Cmax", alpha, in.M, lo, hi)
}

// GenSpec parameterizes the Braun-style generator.
type GenSpec struct {
	Class    Class
	Tasks    int
	Machines int
	Seed     uint64
}

// DefaultTasks and DefaultMachines are the benchmark dimensions used
// throughout the paper (512 tasks on 16 machines).
const (
	DefaultTasks    = 512
	DefaultMachines = 16
)

// Generate builds a synthetic instance of the requested class with the
// classic range-based method: a baseline vector b[t] ~ U(1, φ_b) gives
// each task a nominal size, and every row is ETC[t][m] = b[t] · U(1, φ_r).
// Consistency is then imposed by row sorting (consistent: all columns;
// semi-consistent: even-indexed columns only).
//
// This substitutes for the original u_x_yyzz.k data files, which are not
// redistributable here. Those files were produced by this same method
// with the φ ranges above, so a generated instance is a fresh draw from
// its class's distribution, not a copy of the published matrix: compare
// shapes and rankings with the paper, not absolute makespans.
func Generate(spec GenSpec) (*Instance, error) {
	if spec.Tasks <= 0 {
		spec.Tasks = DefaultTasks
	}
	if spec.Machines <= 0 {
		spec.Machines = DefaultMachines
	}
	if err := checkDims(spec.Tasks, spec.Machines); err != nil {
		return nil, err
	}
	phiB := float64(TaskHeterogeneityLow)
	if spec.Class.TaskHet == High {
		phiB = TaskHeterogeneityHigh
	}
	phiR := float64(MachHeterogeneityLow)
	if spec.Class.MachineHet == High {
		phiR = MachHeterogeneityHigh
	}
	r := rng.New(spec.Seed)
	tn, mn := spec.Tasks, spec.Machines
	row := make([]float64, tn*mn)
	for t := 0; t < tn; t++ {
		base := r.Float64Range(1, phiB)
		for m := 0; m < mn; m++ {
			row[t*mn+m] = base * r.Float64Range(1, phiR)
		}
	}
	switch spec.Class.Consistency {
	case Consistent:
		for t := 0; t < tn; t++ {
			sort.Float64s(row[t*mn : (t+1)*mn])
		}
	case SemiConsistent:
		// Sort the even-indexed columns of every row among themselves,
		// leaving odd columns untouched: the even columns form the
		// embedded consistent sub-matrix.
		tmp := make([]float64, 0, (mn+1)/2)
		for t := 0; t < tn; t++ {
			tmp = tmp[:0]
			for m := 0; m < mn; m += 2 {
				tmp = append(tmp, row[t*mn+m])
			}
			sort.Float64s(tmp)
			for i, m := 0, 0; m < mn; i, m = i+1, m+2 {
				row[t*mn+m] = tmp[i]
			}
		}
	case Inconsistent:
		// leave as drawn
	default:
		return nil, fmt.Errorf("etc: unknown consistency %d", spec.Class.Consistency)
	}
	in, err := New(spec.Class.Name(), tn, mn, row)
	if err != nil {
		return nil, err
	}
	in.ClassTag = spec.Class
	return in, nil
}

// GenerateByName is a convenience wrapper: it parses a u_x_yyzz.k name
// and generates the corresponding instance at benchmark dimensions. The
// class (including the index k) determines the seed, so every call with
// the same name yields the same instance — our stand-in for the fixed
// benchmark files.
//
// A "@TxM" suffix ("u_c_hihi.0@128x8") materializes the class at
// explicit dimensions instead of the benchmark's 512×16; the seed still
// derives from the class alone, so one class scales across sizes as the
// same statistical family. The instance keeps the sized name, so caches
// keyed on Name distinguish sizes.
func GenerateByName(name string) (*Instance, error) {
	cl, tasks, machines, err := ParseSizedName(name)
	if err != nil {
		return nil, err
	}
	in, err := Generate(GenSpec{Class: cl, Tasks: tasks, Machines: machines, Seed: classSeed(cl)})
	if err != nil {
		return nil, err
	}
	in.Name = name
	return in, nil
}

// Benchmark returns the full 12-instance suite the paper evaluates
// (index 0 of every class), generated deterministically.
func Benchmark() ([]*Instance, error) {
	classes := AllClasses()
	out := make([]*Instance, 0, len(classes))
	for _, cl := range classes {
		in, err := Generate(GenSpec{Class: cl, Seed: classSeed(cl)})
		if err != nil {
			return nil, err
		}
		out = append(out, in)
	}
	return out, nil
}

// ClassSeed derives the stable per-class generation seed used by
// GenerateByName and Benchmark, so external stores (the binary
// instance repository) can record the provenance of a pre-generated
// matrix.
func ClassSeed(cl Class) uint64 { return classSeed(cl) }

// classSeed derives a stable seed per class so the synthetic benchmark is
// reproducible across runs and machines.
func classSeed(cl Class) uint64 {
	return 0xE7C0_0000_0000_0000 |
		uint64(cl.Consistency)<<16 |
		uint64(cl.TaskHet)<<12 |
		uint64(cl.MachineHet)<<8 |
		uint64(cl.Index&0xFF)
}

// Write serializes the instance in the classic HCSP text layout: the
// first line holds "tasks machines", followed by one ETC value per line
// in task-major order.
func (in *Instance) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d\n", in.T, in.M); err != nil {
		return err
	}
	for _, v := range in.Row {
		if _, err := fmt.Fprintf(bw, "%g\n", v); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses the format produced by Write. It also accepts the
// header-less classic files when dims are supplied via ReadSized.
func Read(name string, r io.Reader) (*Instance, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	if !sc.Scan() {
		return nil, fmt.Errorf("etc: empty input")
	}
	var tn, mn int
	if _, err := fmt.Sscanf(strings.TrimSpace(sc.Text()), "%d %d", &tn, &mn); err != nil {
		return nil, fmt.Errorf("etc: bad header %q: %v", sc.Text(), err)
	}
	return readBody(name, tn, mn, sc)
}

// ReadSized parses a header-less value stream of tasks×machines entries,
// the layout of the original Braun distribution files.
func ReadSized(name string, tasks, machines int, r io.Reader) (*Instance, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	return readBody(name, tasks, machines, sc)
}

func readBody(name string, tn, mn int, sc *bufio.Scanner) (*Instance, error) {
	if err := checkDims(tn, mn); err != nil {
		return nil, err
	}
	// Preallocate conservatively: the header's claim is untrusted until
	// the values actually arrive, so a hostile "16777216 1" header must
	// not reserve 128 MB up front.
	capHint := tn * mn
	if capHint > 1<<16 {
		capHint = 1 << 16
	}
	row := make([]float64, 0, capHint)
	for sc.Scan() {
		for _, f := range strings.Fields(sc.Text()) {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("etc: bad value %q: %v", f, err)
			}
			row = append(row, v)
			// Fail fast once the body exceeds the header's claim: a
			// hostile stream must not grow the buffer past the declared
			// matrix.
			if len(row) > tn*mn {
				return nil, fmt.Errorf("etc: more than the declared %d values", tn*mn)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(row) != tn*mn {
		return nil, fmt.Errorf("etc: read %d values, want %d", len(row), tn*mn)
	}
	in, err := New(name, tn, mn, row)
	if err != nil {
		return nil, err
	}
	if cl, perr := ParseClass(name); perr == nil {
		in.ClassTag = cl
	}
	return in, nil
}
