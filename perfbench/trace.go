package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the
// program. Spans of one job (or one Solve) share a trace ID; Parent is
// the ID of the span that caused it, -1 for a root.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per span.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a span and returns its ID, or -1 when t is nil.
func (t *tracer) add(trace uint64, parent int, name string, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{
		Trace: trace, ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
	return id
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile stores the spans as JSON.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's self time, indexed by span ID: its
// duration minus the part of its interval that its children cover.
// Overlapping children count once, and child time outside the parent's
// interval is not subtracted.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - time.Duration(covered(s.Start, s.End, kids[s.ID]))
	}
	return out
}

// covered is the length of the union of the children's intervals
// clipped to [lo, hi].
func covered(lo, hi int64, children []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, lo), min(c.End, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// spanRow aggregates the spans of one name.
type spanRow struct {
	name      string
	count     int
	totalDur  time.Duration
	totalSelf time.Duration
}

// summarizeSpans groups spans by name, in order of first appearance.
func summarizeSpans(spans []span) []spanRow {
	self := selfTimes(spans)
	idx := make(map[string]int)
	var rows []spanRow
	for i, s := range spans {
		j, ok := idx[s.Name]
		if !ok {
			j = len(rows)
			idx[s.Name] = j
			rows = append(rows, spanRow{name: s.Name})
		}
		rows[j].count++
		rows[j].totalDur += s.dur()
		rows[j].totalSelf += self[i]
	}
	return rows
}

func printSpanTable(w io.Writer, spans []span) {
	fmt.Fprintf(w, "%-24s %8s %12s %12s\n", "span", "count", "mean ms", "self ms")
	for _, r := range summarizeSpans(spans) {
		n := float64(r.count)
		fmt.Fprintf(w, "%-24s %8d %12.4f %12.4f\n", r.name, r.count, ms(r.totalDur)/n, ms(r.totalSelf)/n)
	}
}
