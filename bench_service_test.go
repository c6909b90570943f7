// Service-level throughput benchmark: full jobs through the scheduling
// service — submit, queue, worker dispatch, store-backed instance
// resolution, solve, retire — with a closed-loop in-flight window, so
// ns/op is the end-to-end cost per job the way a client experiences
// it. benchguard holds this number as the service throughput floor;
// jobs/s makes it readable directly in bench output.
package gridsched

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"gridsched/internal/instdb"
)

// BenchmarkServiceThroughput pushes Min-min jobs on a 64×8 stored
// instance through a 4-worker service, keeping a fixed in-flight
// window like the closed-loop harness (cmd/loadgen) does. The
// instance store removes generation noise: every job resolves its
// matrix with one map lookup.
func BenchmarkServiceThroughput(b *testing.B) {
	var buf bytes.Buffer
	if _, err := instdb.Build(&buf, []string{"u_i_hihi.0@64x8"}); err != nil {
		b.Fatal(err)
	}
	store, err := instdb.Decode(buf.Bytes())
	if err != nil {
		b.Fatal(err)
	}
	svc := NewService(ServiceConfig{Workers: 4, QueueSize: 256, InstanceDB: store})
	defer svc.Close()

	spec := JobSpec{Solver: "minmin", Instance: "u_i_hihi.0@64x8"}
	ctx := context.Background()

	const inflight = 64
	sem := make(chan struct{}, inflight)
	errc := make(chan error, 1)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sem <- struct{}{}
		j, err := svc.Submit(spec)
		if err != nil {
			b.Fatal(err)
		}
		go func(id string) {
			defer func() { <-sem }()
			done, err := svc.Wait(ctx, id)
			if err == nil && done.State != JobDone {
				err = context.Canceled
			}
			if err != nil {
				select {
				case errc <- err:
				default:
				}
			}
		}(j.ID)
	}
	// Drain the window before stopping the clock: throughput counts
	// completed jobs, not enqueued ones.
	for i := 0; i < inflight; i++ {
		sem <- struct{}{}
	}
	b.StopTimer()
	select {
	case err := <-errc:
		b.Fatal(err)
	default:
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)/secs, "jobs/s")
	}
}

// BenchmarkServiceThroughputParallel is the service core's scaling
// probe: every benchmark goroutine is an independent closed-loop client
// doing synchronous submit→Wait round trips, so intake, dispatch and
// retirement contend on the one job-store lock and run queue from as
// many directions as GOMAXPROCS allows. Compare runs at -cpu 1,2: the
// jobs/s figure should grow with cores.
func BenchmarkServiceThroughputParallel(b *testing.B) {
	var buf bytes.Buffer
	if _, err := instdb.Build(&buf, []string{"u_i_hihi.0@64x8"}); err != nil {
		b.Fatal(err)
	}
	store, err := instdb.Decode(buf.Bytes())
	if err != nil {
		b.Fatal(err)
	}
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	svc := NewService(ServiceConfig{Workers: workers, QueueSize: 1024, InstanceDB: store})
	defer svc.Close()

	spec := JobSpec{Solver: "minmin", Instance: "u_i_hihi.0@64x8"}
	ctx := context.Background()
	errc := make(chan error, 1)

	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			j, err := svc.Submit(spec)
			if err != nil {
				select {
				case errc <- err:
				default:
				}
				return
			}
			done, err := svc.Wait(ctx, j.ID)
			if err == nil && done.State != JobDone {
				err = context.Canceled
			}
			if err != nil {
				select {
				case errc <- err:
				default:
				}
				return
			}
		}
	})
	b.StopTimer()
	select {
	case err := <-errc:
		b.Fatal(err)
	default:
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)/secs, "jobs/s")
	}
}
