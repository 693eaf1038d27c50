package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval around a call into the program. Spans of
// one operation share Op; Parent is the enclosing span's ID (-1 for an
// operation's root span).
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the traced run; a nil *tracer
// records nothing, so untraced runs pay one nil check per call site.
// Spans are begun from inside the program's callbacks (the actuator),
// so recording is locked rather than tied to the caller's goroutine.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	op    int
	root  int // the open operation span, parent of spans begun without one
}

func newTracer() *tracer { return &tracer{t0: time.Now(), root: -1} }

// beginOp opens operation op's root span; spans begun with parent -1
// nest under it until it ends.
func (t *tracer) beginOp(op int, name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.op = op
	t.root = t.add(name, -1, now)
	return t.root
}

// begin opens a span under parent; parent -1 means the open operation.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent < 0 {
		parent = t.root
	}
	return t.add(name, parent, now)
}

func (t *tracer) add(name string, parent int, now int64) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Op: t.op, Start: now, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	if id == t.root {
		t.root = -1
	}
}

// selfTimes returns each span's self time in ns: its duration minus
// the part of its interval its children cover. Children of one span
// never overlap (one closed-loop caller), so their durations add.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// opSelfMs returns the mean self time of the operations' root spans:
// the time an operation spends outside every call it was traced into.
func opSelfMs(spans []span) float64 {
	self := selfTimes(spans)
	var total float64
	roots := 0
	for i, s := range spans {
		if s.Parent < 0 {
			total += float64(self[i]) / 1e6
			roots++
		}
	}
	return ratio(total, float64(roots))
}

// spanSummary aggregates spans by name: count, mean duration and mean
// self time, in ms.
type spanSummary struct {
	Name           string
	Count          int
	MeanMs, SelfMs float64
}

func summarize(spans []span) []spanSummary {
	self := selfTimes(spans)
	byName := map[string]*spanSummary{}
	for i, s := range spans {
		sum := byName[s.Name]
		if sum == nil {
			sum = &spanSummary{Name: s.Name}
			byName[s.Name] = sum
		}
		sum.Count++
		sum.MeanMs += float64(s.End-s.Start) / 1e6
		sum.SelfMs += float64(self[i]) / 1e6
	}
	out := make([]spanSummary, 0, len(byName))
	for _, sum := range byName {
		sum.MeanMs /= float64(sum.Count)
		sum.SelfMs /= float64(sum.Count)
		out = append(out, *sum)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// meanMs returns the mean duration of the spans named name, in ms (0
// when there are none).
func meanMs(spans []span, name string) float64 {
	var sum float64
	n := 0
	for _, s := range spans {
		if s.Name == name {
			sum += float64(s.End-s.Start) / 1e6
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// writeSpans writes the spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
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
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
