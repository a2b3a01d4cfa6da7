package main

import (
	"testing"
	"time"
)

func span(name string, start, end time.Duration, parent int) Span {
	return Span{Name: name, Start: start, End: end, Parent: parent}
}

func TestSelfTimesNested(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		span("root", 0, 100*ms, -1),
		span("a", 10*ms, 30*ms, 0),
		span("b", 50*ms, 90*ms, 0),
		span("b.child", 60*ms, 70*ms, 2),
	}
	want := []time.Duration{40 * ms, 20 * ms, 30 * ms, 10 * ms}
	got := SelfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestSelfTimesOverlappingChildrenCountOnce(t *testing.T) {
	ms := time.Millisecond
	for _, c := range []struct {
		name     string
		children [][2]time.Duration
		want     time.Duration
	}{
		{"overlapping", [][2]time.Duration{{10 * ms, 50 * ms}, {30 * ms, 70 * ms}}, 40 * ms},
		{"contained", [][2]time.Duration{{10 * ms, 50 * ms}, {20 * ms, 30 * ms}}, 60 * ms},
		{"touching", [][2]time.Duration{{10 * ms, 20 * ms}, {20 * ms, 30 * ms}}, 80 * ms},
		{"past the parent", [][2]time.Duration{{80 * ms, 120 * ms}}, 80 * ms},
		{"before the parent", [][2]time.Duration{{-20 * ms, 10 * ms}}, 90 * ms},
		{"three-way", [][2]time.Duration{{0, 40 * ms}, {30 * ms, 60 * ms}, {50 * ms, 100 * ms}}, 0},
	} {
		spans := []Span{span("root", 0, 100*ms, -1)}
		for _, ch := range c.children {
			spans = append(spans, span("child", ch[0], ch[1], 0))
		}
		if got := SelfTimes(spans)[0]; got != c.want {
			t.Errorf("%s: self = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSelfTimesUnendedSpanIsZero(t *testing.T) {
	spans := []Span{span("open", 5, -1, -1)}
	if got := SelfTimes(spans)[0]; got != 0 {
		t.Fatalf("self of an unended span = %v, want 0", got)
	}
}

func TestTracerNilIsNoOp(t *testing.T) {
	var tr *Tracer
	id := tr.Begin("kernel", "x", -1, 0)
	tr.End(id)
	tr.Count("x", 1)
	if id != -1 || tr.Spans() != nil || len(tr.Counts()) != 0 {
		t.Fatal("nil tracer recorded something")
	}
}

func TestTracerRecordsParentsAndCounts(t *testing.T) {
	tr := NewTracer()
	root := tr.Begin("bench", "root", -1, 7)
	child := tr.Begin("kernel", "child", root, 7)
	tr.End(child)
	tr.End(root)
	tr.Count("calls", 2)
	tr.Count("calls", 1)
	spans := tr.Spans()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Req != 7 || spans[0].End < spans[1].End {
		t.Fatalf("spans = %+v", spans)
	}
	if tr.Counts()["calls"] != 3 {
		t.Fatalf("counts = %v", tr.Counts())
	}
}
