// Command benchguard gates CI on benchmark regressions: it parses
// `go test -bench` output (a file argument or stdin), compares every
// benchmark recorded in the checked-in baseline, and exits non-zero
// when one slowed beyond the threshold or disappeared from the run.
//
// Usage:
//
//	go test -run '^$' -bench '^Benchmark(IncrementalEval|FullRecomputeEval|EngineObserver|H2LLCandidates|Makespan|Move|Portfolio|SolverThroughput|ServiceThroughput)' . | go run ./cmd/benchguard
//	go run ./cmd/benchguard -baseline BENCH_baseline.json bench.txt
//	go test -run '^$' -bench '...' . | go run ./cmd/benchguard -update
//	go test -run '^$' -bench '...' -benchtime 1x . | go run ./cmd/benchguard -names-only
//
// -update rewrites the baseline from the current run (keeping the
// configured threshold) instead of comparing; commit the result when a
// deliberate change moves the numbers.
//
// -require-all additionally fails when the run contains benchmarks the
// baseline does not know: a newly added guarded benchmark must land
// together with its baseline entry, or the guard would silently never
// hold it. -names-only checks exactly that name-set agreement — in both
// directions — while ignoring the timings; it is meant for
// `-benchtime 1x` smoke runs, whose single iteration measures nothing
// but still proves the guarded set and the baseline have not drifted
// apart.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	"gridsched/internal/benchcmp"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchguard: ")

	var (
		baselinePath = flag.String("baseline", "BENCH_baseline.json", "baseline file to compare against (or rewrite with -update)")
		threshold    = flag.Float64("threshold", 0, "relative slowdown that fails the guard (0 = baseline's own threshold, default 0.25)")
		update       = flag.Bool("update", false, "rewrite the baseline from the current run instead of comparing")
		requireAll   = flag.Bool("require-all", false, "also fail when the run contains benchmarks absent from the baseline")
		namesOnly    = flag.Bool("names-only", false, "check only that run and baseline cover the same benchmark names (implies -require-all, ignores timings; for -benchtime 1x smoke runs)")
	)
	flag.Parse()

	var in io.Reader = os.Stdin
	src := "stdin"
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		in, src = f, flag.Arg(0)
	}

	current, err := benchcmp.Parse(in)
	if err != nil {
		log.Fatalf("parsing %s: %v", src, err)
	}

	if *update {
		updateBaseline(*baselinePath, *threshold, current)
		return
	}

	bf, err := os.Open(*baselinePath)
	if err != nil {
		log.Fatalf("%v (run with -update to create it)", err)
	}
	base, err := benchcmp.ReadBaseline(bf)
	bf.Close()
	if err != nil {
		log.Fatal(err)
	}

	if *namesOnly {
		if !compareNames(base, current) {
			log.Fatalf("benchmark name sets diverged from %s", *baselinePath)
		}
		fmt.Printf("benchmark guard passed: %d benchmark names match the baseline\n", len(current))
		return
	}

	results, ok := benchcmp.Compare(base, current, *threshold)
	for _, r := range results {
		switch {
		case r.Missing:
			fmt.Printf("MISSING  %-45s baseline %.4g ns/op, absent from this run\n", r.Name, r.Baseline)
		case r.Regressed:
			fmt.Printf("REGRESS  %-45s %.4g -> %.4g ns/op (%+.1f%%)\n", r.Name, r.Baseline, r.Current, 100*r.Delta)
		default:
			fmt.Printf("ok       %-45s %.4g -> %.4g ns/op (%+.1f%%)\n", r.Name, r.Baseline, r.Current, 100*r.Delta)
		}
	}
	if *requireAll {
		for _, name := range unknownNames(base, current) {
			fmt.Printf("UNKNOWN  %-45s %.4g ns/op in this run, absent from the baseline\n", name, current[name])
			ok = false
		}
	}
	if !ok {
		log.Fatalf("benchmark guard failed against %s", *baselinePath)
	}
	fmt.Printf("benchmark guard passed: %d benchmarks within threshold\n", len(results))
}

// unknownNames returns, sorted, the benchmarks of the current run that
// the baseline has no entry for.
func unknownNames(base benchcmp.Baseline, current map[string]float64) []string {
	var names []string
	for name := range current {
		if _, known := base.Benchmarks[name]; !known {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// compareNames checks that run and baseline cover exactly the same
// benchmark names, printing one line per divergence.
func compareNames(base benchcmp.Baseline, current map[string]float64) bool {
	ok := true
	var missing []string
	for name := range base.Benchmarks {
		if _, ran := current[name]; !ran {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		fmt.Printf("MISSING  %-45s in baseline, absent from this run\n", name)
		ok = false
	}
	for _, name := range unknownNames(base, current) {
		fmt.Printf("UNKNOWN  %-45s in this run, absent from the baseline\n", name)
		ok = false
	}
	return ok
}

// updateBaseline rewrites the baseline from the current measurements,
// preserving an existing file's threshold and note unless overridden.
func updateBaseline(path string, threshold float64, current map[string]float64) {
	base := benchcmp.Baseline{
		Note:      "Absolute ns/op from the machine that last ran -update; regenerate from CI-representative hardware with: go test -run '^$' -bench '^Benchmark(IncrementalEval|FullRecomputeEval|EngineObserver|H2LLCandidates|Makespan|Move|Portfolio|SolverThroughput|ServiceThroughput)' -benchtime 0.2s -count 3 . | go run ./cmd/benchguard -update",
		Threshold: 0.25,
		FloorNs:   benchcmp.DefaultFloorNs,
	}
	if f, err := os.Open(path); err == nil {
		if prev, perr := benchcmp.ReadBaseline(f); perr == nil {
			base.Note, base.Threshold = prev.Note, prev.Threshold
			if prev.FloorNs > 0 {
				base.FloorNs = prev.FloorNs
			}
		}
		f.Close()
	}
	if threshold > 0 {
		base.Threshold = threshold
	}
	base.Benchmarks = make(map[string]benchcmp.Entry, len(current))
	for name, ns := range current {
		base.Benchmarks[name] = benchcmp.Entry{NsPerOp: ns}
	}
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := benchcmp.WriteBaseline(f, base); err != nil {
		f.Close()
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s with %d benchmarks (threshold %.0f%%)\n", path, len(base.Benchmarks), 100*base.Threshold)
}
