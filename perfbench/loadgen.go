package main

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// Sample is one open-loop request's timing, as offsets from the start of
// the run. Latency runs from Due, so time a request spent waiting behind a
// stall counts against it; Sent - Due is how late the generator itself
// ran.
type Sample struct {
	Due, Sent, Done time.Duration
	Err             error
}

// Latency is the request's time from when it was due to its reply.
func (s Sample) Latency() time.Duration { return s.Done - s.Due }

// Lag is how late the generator handed the request over.
func (s Sample) Lag() time.Duration { return s.Sent - s.Due }

// Clock is the time source of an open-loop run; tests substitute one that
// stalls.
type Clock interface {
	Now() time.Duration
	SleepUntil(t time.Duration)
}

type wallClock struct{ start time.Time }

func newWallClock() wallClock { return wallClock{start: time.Now()} }

func (c wallClock) Now() time.Duration { return time.Since(c.start) }

// SleepUntil blocks the calling OS thread in nanosleep, whose wake-up is
// precise to tens of microseconds; time.Sleep rounds up to the runtime's
// millisecond poller timeout, which next to a sub-millisecond cache hit
// would be much of the latency measured. OpenLoop locks its generator to
// a thread, so the block holds no other goroutine up.
func (c wallClock) SleepUntil(t time.Duration) {
	for {
		d := t - c.Now()
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

// PoissonSchedule returns n due times of a Poisson process at rate per
// second, drawn from seed.
func PoissonSchedule(n int, rate float64, seed uint64) []time.Duration {
	rng := rand.New(rand.NewPCG(seed, 0x6c6f616467656e))
	due := make([]time.Duration, n)
	t := 0.0
	for i := range due {
		t += rng.ExpFloat64() / rate
		due[i] = time.Duration(t * float64(time.Second))
	}
	return due
}

// OpenLoop sends request i at due[i] whether or not earlier requests have
// been answered, over at most conns concurrent connections. A request due
// while every connection is busy waits in a FIFO queue. It returns once
// every request has been answered.
func OpenLoop(due []time.Duration, conns int, clk Clock, do func(i int) error) []Sample {
	samples := make([]Sample, len(due))
	// Sized to the number of sends, so the generator never blocks on a
	// busy system and stays on schedule.
	queue := make(chan int, len(due))
	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				err := do(i)
				samples[i].Done = clk.Now()
				samples[i].Err = err
			}
		}()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for i, d := range due {
		clk.SleepUntil(d)
		samples[i].Due = d
		samples[i].Sent = clk.Now()
		queue <- i
	}
	close(queue)
	wg.Wait()
	return samples
}

// ClosedLoop runs requests 0..n-1 on conns clients, each sending its next
// request only after the previous reply.
func ClosedLoop(n, conns int, do func(i int)) {
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				do(i)
			}
		}()
	}
	wg.Wait()
}
