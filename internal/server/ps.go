package server

import (
	"fmt"
	"math"

	"sita/internal/sim"
	"sita/internal/workload"
)

// Processor-Sharing hosts. The paper's architectural model forbids
// time-sharing (run-to-completion is the norm for memory-bound
// supercomputing jobs), but its fairness definition is motivated by
// footnote 1: "Processor-Sharing ... is ultimately fair in that every job
// experiences the same expected slowdown." This file provides PS hosts so
// that experiments can draw that ideal-fairness reference line: an M/G/1-PS
// host gives every job expected slowdown 1/(1-rho) regardless of its size.

// psJob tracks one job's remaining work inside a PS host.
type psJob struct {
	job       workload.Job
	remaining float64
}

// psHost serves all resident jobs simultaneously, each at rate 1/n.
type psHost struct {
	index      int
	jobs       []psJob
	lastUpdate float64
	pending    sim.Handle // scheduled completion of the current minimum
	engine     *sim.Engine
	onDone     func(rec JobRecord)
}

// advance charges elapsed processing time to every resident job.
//
//sim:noalloc
func (h *psHost) advance(now float64) {
	if len(h.jobs) > 0 {
		each := (now - h.lastUpdate) / float64(len(h.jobs))
		for i := range h.jobs {
			h.jobs[i].remaining -= each
		}
	}
	h.lastUpdate = now
}

// reschedule cancels any pending completion and schedules the next one as
// a typed event — canceling and rescheduling recycles the engine's slot
// arena, so the churn of PS arrivals never allocates.
//
//sim:noalloc
func (h *psHost) reschedule(now float64) {
	h.pending.Cancel()
	if len(h.jobs) == 0 {
		return
	}
	minRemaining := math.Inf(1)
	for i := range h.jobs {
		if h.jobs[i].remaining < minRemaining {
			minRemaining = h.jobs[i].remaining
		}
	}
	if minRemaining < 0 {
		minRemaining = 0
	}
	delay := minRemaining * float64(len(h.jobs))
	h.pending = h.engine.ScheduleAfter(delay, sim.Ev{Kind: evPSComplete, Host: int32(h.index)})
}

// complete retires the job whose completion this event was scheduled for —
// any state change since scheduling would have canceled the event, so the
// current minimum-remaining job is finishing now — plus every other job
// within floating-point reach of zero. Retiring by comparison with the
// minimum (rather than an absolute epsilon) avoids a livelock when the
// remaining sliver is smaller than the clock's ulp and virtual time can no
// longer advance.
//
//sim:noalloc
func (h *psHost) complete(now float64) {
	h.advance(now)
	if len(h.jobs) == 0 {
		return
	}
	minRemaining := h.jobs[0].remaining
	for _, pj := range h.jobs[1:] {
		if pj.remaining < minRemaining {
			minRemaining = pj.remaining
		}
	}
	tol := minRemaining + 1e-9*(1+math.Abs(now))
	kept := h.jobs[:0]
	for _, pj := range h.jobs {
		if pj.remaining <= tol {
			// Record Start so that Wait() + Size == Departure - Arrival:
			// under PS the whole sharing-induced stretch counts as "wait".
			rec := JobRecord{
				ID:        pj.job.ID,
				Host:      h.index,
				Arrival:   pj.job.Arrival,
				Size:      pj.job.Size,
				Start:     now - pj.job.Size,
				Departure: now,
			}
			if h.onDone != nil {
				h.onDone(rec)
			}
		} else {
			kept = append(kept, pj) //lint:allow allocfree kept reuses jobs' backing array (kept := h.jobs[:0]); never grows
		}
	}
	h.jobs = kept
	h.reschedule(now)
}

// add admits a job at the current instant.
//
//sim:noalloc
func (h *psHost) add(job workload.Job, now float64) {
	h.advance(now)
	h.jobs = append(h.jobs, psJob{job: job, remaining: job.Size}) //lint:allow allocfree backing array grows to the high-water job count, then recycles
	h.reschedule(now)
}

// psSystem is a distributed server whose hosts run Processor-Sharing
// instead of FCFS run-to-completion. Pull-based policies (Central) are not
// meaningful under PS — a PS host is never "busy" — so Assign must return a
// host index. The arrival feed and the occupancy queries (NumJobs, Idle,
// NextIdleHost, MinJobsHost) are the dispatcher's, shared with System.
type psSystem struct {
	dispatcher
	hosts []psHost
}

// newPSOn wires a psSystem onto an existing engine (fresh or pooled).
// Panics if h < 1 or p is nil.
func newPSOn(eng *sim.Engine, h int, p Policy, onComplete func(JobRecord)) *psSystem {
	s := &psSystem{}
	s.init(eng, h, p, s)
	s.hosts = make([]psHost, h)
	for i := range s.hosts {
		s.hosts[i] = psHost{index: i, engine: eng, onDone: onComplete}
	}
	return s
}

// WorkLeft reports the unfinished work at host i at the current instant.
func (s *psSystem) WorkLeft(i int) float64 {
	h := &s.hosts[i]
	h.advance(s.engine.Now())
	total := 0.0
	for _, pj := range h.jobs {
		total += pj.remaining
	}
	return total
}

// MinWorkHost reports the host a lowest-index-wins scan of WorkLeft would
// pick.
//
// Unlike the FCFS System, the PS path answers this by an exact linear scan:
// a PS host's work left is a floating-point sum over resident jobs whose
// value depends on the whole advance() subdivision history, so an
// incrementally maintained drain-instant key could differ from the
// recomputed sum by an ulp and flip an exact tie. PS experiments run at
// small h (the fairness reference line), so the O(h) scan is not a hot
// path; the indexed fast path covers the FCFS many-hosts sweeps.
func (s *psSystem) MinWorkHost() int { return s.minWorkIn(0, len(s.hosts)) }

// MinWorkHostIn is MinWorkHost over hosts lo <= i < hi.
// Panics if the range is empty or out of bounds.
func (s *psSystem) MinWorkHostIn(lo, hi int) int {
	if lo < 0 || hi > len(s.hosts) || lo >= hi {
		panic(fmt.Sprintf("server: range [%d, %d) invalid for %d hosts", lo, hi, len(s.hosts)))
	}
	return s.minWorkIn(lo, hi)
}

//sim:noalloc
func (s *psSystem) minWorkIn(lo, hi int) int {
	best, bestW := lo, s.WorkLeft(lo)
	for i := lo + 1; i < hi; i++ {
		if w := s.WorkLeft(i); w < bestW {
			best, bestW = i, w
		}
	}
	return best
}

// HandleEvent dispatches the engine's typed events.
// Panics if the policy routes a job outside the host range.
//
//sim:noalloc
func (s *psSystem) HandleEvent(now float64, ev sim.Ev) {
	switch ev.Kind {
	case evArrival:
		s.feedNextArrival()
		idx := s.policy.Assign(ev.Job, s)
		s.checkHost(idx)
		s.hosts[idx].add(ev.Job, now)
		s.note(idx, len(s.hosts[idx].jobs))
	case evPSComplete:
		h := &s.hosts[ev.Host]
		h.complete(now)
		s.note(h.index, len(h.jobs))
	}
}

// RunPS simulates the job list on PS hosts and aggregates metrics like Run,
// on the same pooled engine runner; the result's PolicyName carries a
// "/PS" suffix. A record's Wait is the sharing-induced stretch (response
// minus size), so Wait + Size = Response holds exactly as under FCFS.
// The jobs slice is never written: jobs are renumbered as they are fed,
// so callers may share one job list across concurrent runs (the package's
// read-only input contract).
// Panics if cfg.Hosts <= 0 or cfg.WarmupFraction is outside [0, 1).
//
//sim:entry
//sim:readonly jobs
func RunPS(jobs []workload.Job, cfg Config) *Result {
	validateConfig(cfg)
	return runEngine(jobs, cfg, true)
}
