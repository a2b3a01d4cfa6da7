package main

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopTimesFromDueUnderServerStall stalls the first reply. The
// requests due during the stall wait for the only connection, and their
// latency must include that wait, while the generator stays on schedule.
func TestOpenLoopTimesFromDueUnderServerStall(t *testing.T) {
	ms := time.Millisecond
	due := []time.Duration{0, 10 * ms, 20 * ms, 30 * ms}
	samples := OpenLoop(due, 1, newWallClock(), func(i int) error {
		if i == 0 {
			time.Sleep(60 * ms)
		}
		return nil
	})
	for i := 1; i < len(due); i++ {
		// Served no earlier than 60 ms, so at least 60 ms - due.
		if min := 60*ms - due[i]; samples[i].Latency() < min {
			t.Errorf("request %d latency %v, want >= %v (from its due time)", i, samples[i].Latency(), min)
		}
		if lag := samples[i].Lag(); lag > 25*ms {
			t.Errorf("request %d sent %v late: the generator waited for the stalled reply", i, lag)
		}
	}
}

// stallClock oversleeps once, at one due time, as a descheduled
// generator would.
type stallClock struct {
	wallClock
	at    time.Duration
	stall time.Duration
	done  atomic.Bool
}

func (c *stallClock) SleepUntil(t time.Duration) {
	c.wallClock.SleepUntil(t)
	if t == c.at && c.done.CompareAndSwap(false, true) {
		time.Sleep(c.stall)
	}
}

// TestOpenLoopCountsGeneratorLag stalls the generator itself: the late
// request and the ones due during the stall show the lag, and their
// latency still runs from their due times.
func TestOpenLoopCountsGeneratorLag(t *testing.T) {
	ms := time.Millisecond
	due := []time.Duration{0, 10 * ms, 20 * ms, 30 * ms, 200 * ms}
	clk := &stallClock{wallClock: newWallClock(), at: 10 * ms, stall: 50 * ms}
	samples := OpenLoop(due, 2, clk, func(int) error { return nil })
	for i, wantLag := range []time.Duration{0, 50 * ms, 40 * ms, 30 * ms, 0} {
		s := samples[i]
		if s.Lag() < wantLag {
			t.Errorf("request %d lag %v, want >= %v", i, s.Lag(), wantLag)
		}
		if s.Latency() < s.Lag() {
			t.Errorf("request %d latency %v excludes its lag %v", i, s.Latency(), s.Lag())
		}
	}
	if lag := samples[4].Lag(); lag > 100*ms {
		t.Errorf("request due after the stall still %v late", lag)
	}
	lags := make([]float64, len(samples))
	for i, s := range samples {
		lags[i] = s.Lag().Seconds()
	}
	if got := TailOf(lags); got.Value < 0.05 {
		t.Errorf("lag tail %v misses the 50 ms stall", got)
	}
}

func TestPoissonScheduleIsSeededAndIncreasing(t *testing.T) {
	a, b := PoissonSchedule(2000, 100, 3), PoissonSchedule(2000, 100, 3)
	c := PoissonSchedule(2000, 100, 4)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different schedule")
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatal("due times decrease")
		}
		same = same && a[i] == c[i]
	}
	if same {
		t.Fatal("different seeds, same schedule")
	}
	// 2000 arrivals at 100/s span about 20 s.
	if end := a[len(a)-1].Seconds(); end < 18 || end > 22 {
		t.Fatalf("2000 arrivals at 100/s end at %v s", end)
	}
}

func TestClosedLoopRunsEveryRequestOnce(t *testing.T) {
	var seen [500]atomic.Int32
	ClosedLoop(len(seen), 4, func(i int) { seen[i].Add(1) })
	for i := range seen {
		if seen[i].Load() != 1 {
			t.Fatalf("request %d ran %d times", i, seen[i].Load())
		}
	}
}
