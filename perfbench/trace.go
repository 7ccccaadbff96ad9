package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one batch share Batch; a
// span's Parent is the span that caused it (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Batch  int64  `json:"batch"`
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. The benchmark is a
// closed loop with one batch in flight at a time, so one "current" scope —
// the innermost open span of that batch — is enough to parent the store and
// executor calls that the scheduler makes from its own goroutines.
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	nextID int64
	cur    scope
}

// scope is an open span that later spans of the same batch attach to.
type scope struct {
	id, batch, start int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// open reserves a span ID under the current scope and returns the scope
// the new span will define, plus its parent. With newBatch the span starts
// a batch of its own.
func (t *tracer) open(newBatch bool) (s scope, parent int64) {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	s = scope{id: t.nextID, batch: t.cur.batch, start: start}
	if newBatch {
		s.batch = s.id
	}
	return s, t.cur.id
}

// enter makes s the current scope and returns a function that restores the
// previous one.
func (t *tracer) enter(s scope) func() {
	t.mu.Lock()
	prev := t.cur
	t.cur = s
	t.mu.Unlock()
	return func() {
		t.mu.Lock()
		t.cur = prev
		t.mu.Unlock()
	}
}

// current returns the current scope.
func (t *tracer) current() scope {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cur
}

// close records the span s opened under parent, ending now.
func (t *tracer) close(s scope, parent int64, name, detail string) int64 {
	end := t.now()
	t.add(span{ID: s.id, Parent: parent, Batch: s.batch, Name: name, Detail: detail, Start: s.start, End: end})
	return end - s.start
}

// leaf records a childless span under the current scope that started at
// start and ends now.
func (t *tracer) leaf(name string, start int64) int64 {
	return t.leafUnder(t.current(), name, start)
}

// leafUnder records a childless span under the open span s that started at
// start and ends now, and returns its duration.
func (t *tracer) leafUnder(s scope, name string, start int64) int64 {
	end := t.now()
	t.add(span{Parent: s.id, Batch: s.batch, Name: name, Start: start, End: end})
	return end - start
}

// add records s, giving it an ID when it has none.
func (t *tracer) add(s span) {
	t.mu.Lock()
	if s.ID == 0 {
		t.nextID++
		s.ID = t.nextID
	}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// byName returns the durations (ns) of every span with the given name.
func byName(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Children may overlap each other
// (two workers under one batch) and may stick out of the parent; only the
// union of their intervals inside the parent counts.
func selfTimes(spans []span) map[int64]int64 {
	kids := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(kids[s.ID], s.Start, s.End)
	}
	return self
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b > a {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, end int64
	end = lo
	for _, iv := range clipped {
		a := max(iv[0], end)
		if iv[1] > a {
			total += iv[1] - a
			end = iv[1]
		}
	}
	return total
}

// selfByName sums self time (ns) per span name.
func selfByName(spans []span) map[string]int64 {
	self := selfTimes(spans)
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// writeSpans writes spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	return nil
}
