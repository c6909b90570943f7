// Command perfbench is gridsched's benchmark. It builds its inputs from
// a seed, drives the library and the HTTP service from outside, checks
// every output, and prints every metric by name and unit. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through perfbench/run.sh, which
// builds the binary under .bench_build:
//
//	bash perfbench/run.sh --workload paper-512x16 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (tracing off).
// With --trace 1 the run measures the workload twice, untraced and then
// with spans recorded around every call into a layer, and prints the
// per-layer metrics, the breakdown tables and the tracing overhead; the
// spans are written to .bench_build/spans-<workload>-<seed>.json.
//
// Every workload has a library phase (PA-CGA solves at a fixed
// evaluation budget) and a service phase (HTTP jobs against an
// in-process server). The workload's subject phase gets most of the
// run; the other is a short companion, so every end-to-end metric and
// every layer is measured on every workload. Later claims should be
// rechecked on heldOutSeed, which is kept out of tuning.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// heldOutSeed is the seed reserved for rechecking a claimed gain on
// inputs that were not used while the change was written.
const heldOutSeed = 0x5EED_2026_1017

// runTimeout bounds a whole invocation, so a hung layer ends the run
// with an error instead of outliving the caller's limit.
const runTimeout = 170 * time.Second

type metric struct {
	name, unit string
	value      float64
}

// tally counts operations (solves, jobs, reads) and their failures. A
// failed output check is also counted on its own: any makes the run
// incorrect and the command exit non-zero.
type tally struct {
	mu         sync.Mutex
	attempted  int64
	failed     int64
	checkFails int64
	msgs       []string
}

// problem is one reason an operation failed; check marks a failed
// output check as opposed to a refused or broken request.
type problem struct {
	check bool
	msg   string
}

func checkFail(format string, args ...any) problem {
	return problem{check: true, msg: fmt.Sprintf(format, args...)}
}

func opFail(format string, args ...any) problem {
	return problem{msg: fmt.Sprintf(format, args...)}
}

// op records one attempted operation and the problems it had.
func (t *tally) op(probs ...problem) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if len(probs) > 0 {
		t.failed++
	}
	for _, p := range probs {
		if p.check {
			t.checkFails++
		}
		if len(t.msgs) < 20 {
			t.msgs = append(t.msgs, p.msg)
		}
	}
}

func (t *tally) counts() (attempted, failed, checkFails int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.failed, t.checkFails
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed for instance order, arrivals, job mix and solver seeds")
	seconds := fs.Float64("seconds", 20, "measured time of one run")
	traceFlag := fs.Int("trace", 0, "1 records spans and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()

	cfg := runConfig{wl: wl, seed: *seed, seconds: *seconds, threads: runtime.NumCPU()}
	printRecord(stdout, cfg)
	t := &tally{}
	var metrics []metric
	var err error
	if *traceFlag == 0 {
		metrics, err = runEndToEnd(ctx, stdout, cfg, t)
	} else {
		var tr *tracer
		metrics, tr, err = runTraced(ctx, stdout, cfg, t)
		if tr != nil {
			path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", wl.name, cfg.seed))
			if werr := tr.writeFile(path); werr != nil {
				fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", werr)
			} else {
				fmt.Fprintf(stdout, "spans written to %s\n", path)
			}
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	attempted, failed, checkFails := t.counts()
	for _, m := range t.msgs {
		fmt.Fprintf(stdout, "FAILED: %s\n", m)
	}
	fmt.Fprintf(stdout, "operations: %d attempted, %d failed, %d failed output checks\n", attempted, failed, checkFails)
	printMetrics(stdout, metrics)
	if err := printResult(stdout, checkFails == 0, attempted, failed, metrics); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if checkFails > 0 {
		return 1
	}
	return 0
}

// runConfig is one invocation's settings.
type runConfig struct {
	wl      workload
	seed    uint64
	seconds float64
	threads int // nproc: solver threads, service workers and connections
}

func printMetrics(w io.Writer, ms []metric) {
	fmt.Fprintf(w, "\n%-28s %18s  %s\n", "metric", "value", "unit")
	for _, m := range ms {
		fmt.Fprintf(w, "%-28s %18.6g  %s\n", m.name, m.value, m.unit)
	}
}

// printResult writes the final JSON line. Metric values are printed
// with every digit the float carries.
func printResult(w io.Writer, correct bool, attempted, failed int64, ms []metric) error {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{correct, attempted, failed, make(map[string]val, len(ms))}
	for _, m := range ms {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		out.Metrics[m.name] = val{m.value, m.unit}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// printRecord writes the host and run record, so results stay
// comparable as a trajectory across commits.
func printRecord(w io.Writer, cfg runConfig) {
	rev, modified := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					modified = " (modified)"
				}
			}
		}
	}
	wl := cfg.wl
	fmt.Fprintf(w, "# perfbench %s seed=%d seconds=%g held_out_seed=%d\n", wl.name, cfg.seed, cfg.seconds, uint64(heldOutSeed))
	fmt.Fprintf(w, "# host: nproc=%d GOMAXPROCS=%d go=%s cpu=%q L2=%s L3=%s commit=%s%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(),
		cacheSize(2), cacheSize(3), rev, modified)
	fmt.Fprintf(w, "# library: %d instances %s, PA-CGA Table 1 params with threads=%d (Table 1 asks 3; capped at nproc), budget=%d evals/solve, subject=%v\n",
		len(wl.lib.names), wl.lib.dims(), cfg.threads, wl.lib.evals, !wl.serviceSubject)
	fmt.Fprintf(w, "# service: workers=%d, open loop %.0f jobs/s for %.3gs, closed loop %d jobs on %d connections, mix %s, tabu budget=%d evals, subject=%v\n",
		cfg.threads, openRate, wl.openSeconds(cfg.seconds), wl.closedJobs, cfg.threads, mixString(), tabuEvals, wl.serviceSubject)
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cacheSize reads the size of the given cache level seen by CPU 0.
func cacheSize(level int) string {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	sort.Strings(dirs)
	for _, d := range dirs {
		lv, err := os.ReadFile(filepath.Join(d, "level"))
		if err != nil || strings.TrimSpace(string(lv)) != fmt.Sprint(level) {
			continue
		}
		if typ, _ := os.ReadFile(filepath.Join(d, "type")); strings.TrimSpace(string(typ)) == "Instruction" {
			continue
		}
		if sz, err := os.ReadFile(filepath.Join(d, "size")); err == nil {
			return strings.TrimSpace(string(sz))
		}
	}
	return "unknown"
}

// cpuTime is the user plus system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's maximum resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
