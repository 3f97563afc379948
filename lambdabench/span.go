package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// Span is one timed call into a layer, recorded from outside the layer.
// IDs start at 1; Parent 0 marks a root. Spans of one operation share Op.
type Span struct {
	ID, Parent, Op int
	Name           string
	Start, End     time.Duration // offsets from the tracer's epoch
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing and never reads the clock, so one code path serves the traced
// and the untraced run.
type Tracer struct {
	epoch time.Time
	spans []Span
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *Tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: time.Since(t.epoch)})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *Tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = time.Since(t.epoch)
}

// wrap runs fn inside a span.
func (t *Tracer) wrap(name string, parent, op int, fn func()) {
	id := t.begin(name, parent, op)
	fn()
	t.end(id)
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its children cover (children clipped to the parent, overlaps
// counted once).
func selfTimes(spans []Span) []time.Duration {
	kids := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		covered := time.Duration(0)
		lo, hi := s.Start, s.Start // the merged interval being extended
		for _, c := range cs {
			a, b := max(c.Start, s.Start), min(c.End, s.End)
			if b <= a {
				continue
			}
			if a > hi {
				covered += hi - lo
				lo, hi = a, b
			} else if b > hi {
				hi = b
			}
		}
		covered += hi - lo
		out[i] = s.End - s.Start - covered
	}
	return out
}

// selfByOp sums self time per (operation, span name).
func selfByOp(spans []Span) map[int]map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[int]map[string]time.Duration)
	for i, s := range spans {
		m := out[s.Op]
		if m == nil {
			m = make(map[string]time.Duration)
			out[s.Op] = m
		}
		m[s.Name] += self[i]
	}
	return out
}

// writeSpans writes one JSON object per span, in recording order.
func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range spans {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"op":%d,"name":%q,"start_us":%d,"end_us":%d}`+"\n",
			s.ID, s.Parent, s.Op, s.Name, s.Start.Microseconds(), s.End.Microseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
