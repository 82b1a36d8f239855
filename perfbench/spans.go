package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary: its name, start and
// end (nanoseconds since the run's epoch), the span that caused it (-1
// for a root), and the operation it belongs to. Spans of one operation
// share op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so call sites need no checks.
// The benchmark's client is one goroutine, so no locking is needed.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index, the handle end and child
// spans take.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.epoch).Nanoseconds(), Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = time.Since(t.epoch).Nanoseconds()
}

// record adds an already-measured span that ended now and lasted d —
// for durations a layer reports itself, such as the engine observer's.
func (t *tracer) record(name string, d time.Duration, parent, op int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.spans = append(t.spans, span{Name: name, Start: now - d.Nanoseconds(), End: now, Parent: parent, Op: op})
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, parent, op int, fn func() error) error {
	i := t.begin(name, parent, op)
	defer t.end(i)
	return fn()
}

// durations returns every duration of spans named name, in milliseconds.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of it that its children cover (overlapping children count once).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		slices.SortFunc(kids, func(a, b int) int { return int(spans[a].Start - spans[b].Start) })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerRow is one line of the self-time table.
type layerRow struct {
	Name            string
	Count           int
	MedianSelfMs    float64
	TotalSelfMs     float64
	ShareOfRootSelf float64 // share of all self time under the same kind of root
}

// selfTable aggregates self time per span name. Shares are taken within
// each root kind ("op" for the daemon requests, "replay" for the
// in-process layer replay), since the two are separate measurements of
// the same input.
func selfTable(spans []span) []layerRow {
	self := selfTimes(spans)
	rootOf := func(i int) string {
		for spans[i].Parent >= 0 {
			i = spans[i].Parent
		}
		return spans[i].Name
	}
	perName := map[string][]float64{}
	rootName := map[string]string{}
	rootTotal := map[string]float64{}
	for i, s := range spans {
		ms := float64(self[i]) / 1e6
		perName[s.Name] = append(perName[s.Name], ms)
		r := rootOf(i)
		rootName[s.Name] = r
		rootTotal[r] += ms
	}
	var rows []layerRow
	for name, xs := range perName {
		total := 0.0
		for _, x := range xs {
			total += x
		}
		share := 0.0
		if rt := rootTotal[rootName[name]]; rt > 0 {
			share = total / rt
		}
		rows = append(rows, layerRow{Name: name, Count: len(xs), MedianSelfMs: median(xs), TotalSelfMs: total, ShareOfRootSelf: share})
	}
	sort.Slice(rows, func(a, b int) bool {
		ra, rb := rootName[rows[a].Name], rootName[rows[b].Name]
		if ra != rb {
			return ra < rb
		}
		return rows[a].TotalSelfMs > rows[b].TotalSelfMs
	})
	return rows
}

// writeTable prints the self-time table.
func writeTable(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "%-28s %7s %12s %12s %7s\n", "span", "count", "median_self", "total_self", "share")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %7d %10.3fms %10.1fms %6.1f%%\n", r.Name, r.Count, r.MedianSelfMs, r.TotalSelfMs, 100*r.ShareOfRootSelf)
	}
}

// writeSpans writes every span as one JSON document.
func (t *tracer) writeSpans(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
