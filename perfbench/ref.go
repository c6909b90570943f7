package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host references. On a shared host, how much work a CPU second buys
// changes with what the co-tenants do: they load the sibling
// hyperthreads, the shared caches and the package's turbo budget. That
// halved the solver's and the service's work per CPU second for
// stretches of minutes, longer than a run. The bounded throughputs are
// therefore stated per reference second: the CPU time this host needs,
// at the moment of the measurement, for a fixed amount of reference work
// that belongs to the benchmark. The library phase's reference is a
// cache-resident loop of the kind the solver runs (loopRef). The
// service's is a closed loop of HTTP requests to a handler with no
// program behind it (nullRef), because the HTTP stack slowed far more
// than such a loop did. None of the program runs in a reference, so a
// change to the program moves only the numerator.
// A reference runs in short chunks spread through each measured pass or
// chunk of work, so it samples the host the work ran on, and at the same
// moments: the host's speed changes within a second.

// refMeter interleaves reference chunks with measured work. sample runs
// one chunk; window returns the reference rate, in operations per CPU
// second, over the chunks sampled since the last window.
type refMeter struct {
	chunk func() (ops float64, cpu time.Duration)
	// perSecond is a reference second's operations.
	perSecond float64
	ops       float64
	cpu       time.Duration
	rates     []float64 // every window's rate, for the run record
}

func newRefMeter(perSecond float64, chunk func() (float64, time.Duration)) *refMeter {
	return &refMeter{chunk: chunk, perSecond: perSecond}
}

func (m *refMeter) sample() {
	ops, cpu := m.chunk()
	m.ops += ops
	m.cpu += cpu
}

func (m *refMeter) window() float64 {
	rate := m.ops / m.cpu.Seconds()
	m.ops, m.cpu = 0, 0
	m.rates = append(m.rates, rate)
	return rate
}

// perRefSecond converts a rate per CPU second, measured while the
// reference ran at refRate operations per CPU second, into a rate per
// reference second.
func (m *refMeter) perRefSecond(perCPUSecond, refRate float64) float64 {
	return perCPUSecond * m.perSecond / refRate
}

const (
	// loopChunkOps is each goroutine's iterations in one loopRef chunk, a
	// few milliseconds of CPU.
	loopChunkOps = 1 << 20
	// loopOpsPerSecond is a library reference second's iterations, about
	// one CPU second of loopRef on an unloaded 2-vCPU Xeon host, so that
	// evaluations per reference second read close to evaluations per CPU
	// second there.
	loopOpsPerSecond = 500e6
	// loopTableLen is the loop's table: 64 KiB, the size of one 512×16
	// ETC plane.
	loopTableLen = 1 << 13
)

// loopRef is a fixed loop of the kind the solver runs: a xorshift draw,
// a data-dependent load and store in a cache-resident float64 table, and
// a compare. It returns the largest value it stored.
func loopRef(table []float64, ops int, x uint64) float64 {
	mask := uint64(len(table) - 1)
	best := 0.0
	for i := 0; i < ops; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & mask
		v := table[j] + float64(x>>44)
		table[j] = v
		if v > best {
			best = v
		}
	}
	return best
}

// newLoopMeter is the library phase's reference: loopRef on goroutines
// goroutines at once, each timed on its own thread's clock, since the
// process's clock lags by up to a scheduler tick per running thread,
// which is a large share of a chunk.
func newLoopMeter(goroutines int) *refMeter {
	tables := make([][]float64, goroutines)
	for i := range tables {
		tables[i] = make([]float64, loopTableLen)
	}
	return newRefMeter(loopOpsPerSecond, func() (float64, time.Duration) {
		cpus := make([]time.Duration, goroutines)
		var wg sync.WaitGroup
		for i, table := range tables {
			wg.Add(1)
			go func() {
				defer wg.Done()
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
				t0 := threadCPUTime()
				probeSink += loopRef(table, loopChunkOps, uint64(i+1)*0x9E3779B97F4A7C15)
				cpus[i] = threadCPUTime() - t0
			}()
		}
		wg.Wait()
		var cpu time.Duration
		for _, c := range cpus {
			cpu += c
		}
		return float64(goroutines * loopChunkOps), cpu
	})
}

// threadCPUTime is the CPU time of the calling thread, to the
// nanosecond (CLOCK_THREAD_CPUTIME_ID).
func threadCPUTime() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

const (
	// nullChunkPairs is the request pairs in one nullRef chunk, a few
	// milliseconds of CPU.
	nullChunkPairs = 50
	// nullPairsPerSecond is a service reference second's request pairs,
	// chosen so that jobs per reference second read in the range of jobs
	// per CPU second.
	nullPairsPerSecond = 8e3
	// nullResultBytes is about the size of a 64×8 job's result with its
	// assignment.
	nullResultBytes = 1200
)

// nullRef is the service phase's reference: a loopback server whose
// handler answers like the job API with none of the program behind it.
// A pair is a POST of a job body, which is decoded and answered with a
// small JSON object, then a GET answered with a body of a result's size,
// on as many connections as the closed loop uses.
type nullRef struct {
	ts     *httptest.Server
	client *http.Client
	conns  int
	body   []byte
}

func newNullRef(conns int, body []byte) *nullRef {
	result, _ := json.Marshal(map[string]string{"result": strings.Repeat("x", nullResultBytes)})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if r.Method == http.MethodGet {
			w.Write(result)
			return
		}
		var req map[string]any
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]any{"id": "j0-00000001", "state": "queued", "solver": req["solver"]})
	})
	return &nullRef{ts: httptest.NewServer(h), client: newClient(conns), conns: conns, body: body}
}

func (n *nullRef) close() {
	n.client.CloseIdleConnections()
	n.ts.Close()
}

// meter returns the service phase's reference meter. Its chunks are
// timed on the process's clock, as the closed loop's are. A failed
// request counts as a failed operation.
func (n *nullRef) meter(ctx context.Context, t *tally) *refMeter {
	url := n.ts.URL + "/null"
	return newRefMeter(nullPairsPerSecond, func() (float64, time.Duration) {
		cpu0 := cpuTime()
		closedLoop(ctx, n.conns, nullChunkPairs, func(int) {
			if _, p := call(ctx, n.client, http.MethodPost, url, n.body, http.StatusAccepted, nil); p != nil {
				t.op(*p)
				return
			}
			if _, p := call(ctx, n.client, http.MethodGet, url, nil, http.StatusOK, nil); p != nil {
				t.op(*p)
			}
		})
		return nullChunkPairs, cpuTime() - cpu0
	})
}
