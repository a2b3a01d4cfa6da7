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

// Span is one timed call the benchmark made into a layer. Start and End
// are offsets from the tracer's epoch. Parent is the index of the span
// that caused it, or -1 for a root. Req groups the spans of one serve
// request (0 outside serve).
type Span struct {
	Name   string        `json:"name"`
	Layer  string        `json:"layer"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Req    int64         `json:"req,omitempty"`
}

// Tracer keeps spans and counts in memory until the run ends. A nil
// *Tracer is the untraced mode: every method is a no-op, so the
// end-to-end run pays one nil check per boundary.
type Tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []Span
	counts map[string]int64
}

// NewTracer starts a tracer whose span times count from now.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now(), counts: map[string]int64{}}
}

// Begin opens a span and returns its id for End and for children.
func (t *Tracer) Begin(layer, name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Name: name, Layer: layer, Start: now, End: -1, Parent: parent, Req: req})
	return len(t.spans) - 1
}

// Backdate moves span id's start to at, for a span whose cause predates
// the call that records it, such as a request's due time.
func (t *Tracer) Backdate(id int, at time.Time) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].Start = at.Sub(t.epoch)
	t.mu.Unlock()
}

// End closes span id.
func (t *Tracer) End(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// Count adds n to the named counter.
func (t *Tracer) Count(name string, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Counts returns a copy of the counters.
func (t *Tracer) Counts() map[string]int64 {
	out := map[string]int64{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for k, v := range t.counts {
		out[k] = v
	}
	return out
}

// WriteJSONL writes one span per line to path.
func WriteJSONL(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// SelfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children (concurrent
// calls under one parent) are merged first, so covered time is counted
// once; a child's time outside its parent's interval is ignored. Spans
// never ended count as zero.
func SelfTimes(spans []Span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		var iv [][2]time.Duration
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				iv = append(iv, [2]time.Duration{lo, hi})
			}
		}
		self[i] = s.End - s.Start - covered(iv)
	}
	return self
}

// covered returns the length of the union of intervals.
func covered(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] <= curHi:
			curHi = max(curHi, x[1])
		default:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}
