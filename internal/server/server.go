// Package server simulates the paper's architectural model: a distributed
// server of h identical hosts fed by one job stream through a dispatcher.
// Each host serves its queue in FCFS order, one job at a time,
// run-to-completion (no preemption, no time-sharing). The dispatcher runs a
// pluggable task assignment policy; pull-based policies (Central-Queue) hold
// jobs at the dispatcher until a host goes idle.
//
// A simulation run is deterministic and single-goroutine: given the same
// policy, job stream, and options, Run and RunPS produce bit-identical
// Results on every execution. Steady-state runs are allocation-free —
// host queues, the event heap, and statistics accumulators all live in
// reusable storage owned by the sim.Engine. Concurrency happens one
// level up (internal/runner for sweeps, internal/service for the HTTP
// server), always with one engine, one policy, and one Result per cell.
//
// Read-only input contract: Run and RunPS never write the jobs slice they
// are given — the FCFS and PS systems renumber each job value as it is
// fed, the direct path copies first when renumbering is needed (see
// renumber), and every path reads job values out of the feed without
// aliasing slice elements. This is what lets internal/streamcache hand one
// generated stream to every policy at a load point, copy-free and from
// many goroutines at once. The contract is enforced by the //sim:readonly
// directive (checked by the readonly analyzer under cmd/simvet) and by
// checksum tests in readonly_test.go; any future mutation of the input
// must copy first.
package server

import (
	"fmt"

	"sita/internal/hostindex"
	"sita/internal/sim"
	"sita/internal/workload"
)

// Central is returned by a Policy to hold the arriving job in the
// dispatcher's central queue instead of pushing it to a host.
const Central = -1

// CentralOrder selects the order in which the dispatcher's central queue
// releases held jobs to idle hosts.
type CentralOrder int

// Central-queue disciplines.
const (
	// CentralFCFS releases held jobs in arrival order (the paper's
	// Central-Queue policy, equivalent to Least-Work-Left).
	CentralFCFS CentralOrder = iota
	// CentralSJF releases the shortest held job first — the
	// "favor short jobs" direction the paper's conclusions discuss, which
	// improves mean slowdown but starves long jobs under heavy tails.
	CentralSJF
)

// Typed-event kinds for this package's simulations (the FCFS System and
// the PS variant each own their engine, so one namespace serves both).
const (
	evArrival    uint8 = iota + 1 // Ev.Job arrives at the dispatcher (both systems)
	evDepart                      // Ev.Job finishes on host Ev.Host (service began at Ev.T0)
	evPSComplete                  // PS host Ev.Host reaches its next completion
)

// View is the system state a policy may consult when assigning a job. All
// queries refer to the instant of the arrival being dispatched.
//
// The per-host queries (NumJobs, WorkLeft, Idle) cost O(1) each, so a
// policy scanning all hosts pays O(h) per arrival. The argmin queries
// (MinWorkHost, MinWorkHostIn, MinJobsHost, NextIdleHost) answer the
// scans the standard policies actually perform from incrementally
// maintained indices in O(log h) or better, and are guaranteed to return
// exactly the host a lowest-index-wins linear scan would: strictly
// smallest value first, lowest host index among exact ties (see
// ARCHITECTURE.md § Host-selection indices for the tie-break argument).
type View interface {
	// Hosts reports the number of hosts.
	Hosts() int
	// NumJobs reports how many jobs are at host i (queued plus running).
	NumJobs(i int) int
	// WorkLeft reports the total unfinished work at host i, including the
	// remainder of the running job.
	WorkLeft(i int) float64
	// Idle reports whether host i has no work at all.
	Idle(i int) bool
	// MinWorkHost reports the host a lowest-index-wins scan of WorkLeft
	// over all hosts would pick.
	MinWorkHost() int
	// MinWorkHostIn is MinWorkHost restricted to hosts lo <= i < hi (the
	// grouped-SITA within-group dispatch). Panics if the range is empty
	// or out of bounds: group bounds are the policy's contract.
	MinWorkHostIn(lo, hi int) int
	// MinJobsHost reports the host a lowest-index-wins scan of NumJobs
	// would pick.
	MinJobsHost() int
	// NextIdleHost reports the lowest-indexed host with no work at all,
	// or -1 when every host is busy.
	NextIdleHost() int
}

// Policy is a task assignment rule. Assign returns a host index in
// [0, view.Hosts()) or Central. Policies may be stateful (Round-Robin) and
// are therefore not shared across concurrent simulations.
type Policy interface {
	Name() string
	Assign(job workload.Job, v View) int
}

// Killing marks a Policy that bounds every run, the TAGS discipline
// (Harchol-Balter, ICDCS 2000): a run on host i lasts at most
// KillCutoff(i). A job bigger than that is killed when the budget runs
// out and restarts from scratch at the back of host i+1's FIFO queue; the
// work done on host i is lost, and the job's record is emitted only when
// it finally completes. KillCutoff must be a pure function of the host
// index and +Inf on the last host; System reads it once per host when it
// is built.
//
// Only the FCFS event-heap System models kills, so DirectEligible is false
// for a Killing policy; the PS hosts ignore the capability.
type Killing interface {
	Policy
	// KillCutoff reports the longest run host i allows.
	KillCutoff(i int) float64
}

// JobRecord is the outcome of one simulated job.
type JobRecord struct {
	ID        int
	Host      int
	Arrival   float64
	Size      float64
	Start     float64
	Departure float64
}

// Wait reports time spent queued.
func (r JobRecord) Wait() float64 { return r.Start - r.Arrival }

// Response reports arrival-to-completion time, computed as wait plus
// service so that a job served immediately has response exactly equal to
// its size (Departure - Arrival can round below Size in floating point).
func (r JobRecord) Response() float64 { return r.Wait() + r.Size }

// Slowdown reports response time divided by service requirement (>= 1).
func (r JobRecord) Slowdown() float64 { return r.Response() / r.Size }

// host is the simulator's per-host state. The waiting queue is a
// head-indexed FIFO over a reusable backing array, so steady-state
// enqueue/dequeue cycles stop touching the allocator once the array has
// grown to the high-water mark.
type host struct {
	queue   []workload.Job // waiting jobs, FIFO from queue[head:]
	head    int
	running bool
	readyAt float64 // when all currently assigned work completes
}

// queued reports how many jobs are waiting (excluding the one in service).
func (h *host) queued() int { return len(h.queue) - h.head }

// enqueue appends a waiting job.
//
//sim:noalloc
func (h *host) enqueue(j workload.Job) { h.queue = append(h.queue, j) } //lint:allow allocfree queue grows to the high-water depth, then dequeue recycles it

// dequeue removes and returns the oldest waiting job, recycling the
// backing array once drained.
//
//sim:noalloc
func (h *host) dequeue() workload.Job {
	j := h.queue[h.head]
	h.head++
	if h.head == len(h.queue) {
		h.queue = h.queue[:0]
		h.head = 0
	}
	return j
}

// centralItem is one held job plus its insertion sequence, the FIFO
// tie-break among equal sizes.
type centralItem struct {
	job workload.Job
	seq uint64
}

// centralQueue holds jobs at the dispatcher for pull policies. FCFS mode
// is a head-indexed FIFO like the per-host queues; SJF mode is a binary
// min-heap on (size, insertion seq), so a pull is O(log n) instead of the
// former O(n) scan while preserving that scan's stable pick: strictly
// smallest size first, earliest-held first among exact ties.
type centralQueue struct {
	order CentralOrder
	fifo  []workload.Job
	head  int
	heap  []centralItem
	seq   uint64
}

// Len reports how many jobs are held.
func (q *centralQueue) Len() int {
	if q.order == CentralSJF {
		return len(q.heap)
	}
	return len(q.fifo) - q.head
}

// Push holds one job.
//
//sim:noalloc
func (q *centralQueue) Push(j workload.Job) {
	if q.order != CentralSJF {
		q.fifo = append(q.fifo, j) //lint:allow allocfree fifo grows to the high-water depth, then Pop recycles it
		return
	}
	q.heap = append(q.heap, centralItem{job: j, seq: q.seq}) //lint:allow allocfree heap grows to the high-water depth, then shrinks in place
	q.seq++
	i := len(q.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.heap[i], q.heap[parent] = q.heap[parent], q.heap[i]
		i = parent
	}
}

// Pop releases the next job under the queue's discipline.
//
//sim:noalloc
func (q *centralQueue) Pop() workload.Job {
	if q.order != CentralSJF {
		j := q.fifo[q.head]
		q.head++
		if q.head == len(q.fifo) {
			q.fifo = q.fifo[:0]
			q.head = 0
		}
		return j
	}
	j := q.heap[0].job
	n := len(q.heap) - 1
	q.heap[0] = q.heap[n]
	q.heap = q.heap[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		small := l
		if r := l + 1; r < n && q.less(r, l) {
			small = r
		}
		if !q.less(small, i) {
			break
		}
		q.heap[i], q.heap[small] = q.heap[small], q.heap[i]
		i = small
	}
	return j
}

// less orders the SJF heap by (size, insertion seq).
func (q *centralQueue) less(i, j int) bool {
	a, b := &q.heap[i], &q.heap[j]
	//lint:allow floateq exact size tie-break; equal sizes fall through to seq for FIFO stability
	if a.job.Size != b.job.Size {
		return a.job.Size < b.job.Size
	}
	return a.seq < b.seq
}

// dispatcher is the state the FCFS System and the PS system share: the
// engine, the policy, the lazy arrival feed, and each host's resident job
// count with the indices behind the count-based View queries.
type dispatcher struct {
	engine *sim.Engine
	policy Policy

	// Lazy arrival feeding: Simulate keeps exactly one pending arrival
	// event, so the event heap holds O(hosts) entries instead of the whole
	// trace. feedBase is the block of FIFO sequence numbers reserved for
	// the arrivals, which keeps simultaneous-event ordering identical to
	// eager pre-scheduling (see sim.ReserveSeq).
	feed     []workload.Job
	feedNext int
	feedBase uint64

	// Occupancy indices. The idle freelist is always maintained (two bit
	// operations per job); the jobs argmin activates on a policy's first
	// MinJobsHost query, so policies that never ask pay nothing beyond
	// the bitset. Once active it is updated incrementally — O(log h) per
	// host state change, no allocations — by note.
	jobs    []int            // resident jobs per host (queued plus running)
	idle    hostindex.BitSet // hosts with no jobs at all
	jobsIdx hostindex.Tree   // hosts keyed by their job count
	jobsOn  bool
}

// init wires the dispatcher onto an engine (fresh or pooled) with h empty
// hosts and makes handler the engine's event handler.
// Panics if h < 1 or p is nil.
func (d *dispatcher) init(eng *sim.Engine, h int, p Policy, handler sim.Handler) {
	if h <= 0 {
		panic(fmt.Sprintf("server: need at least one host, got %d", h))
	}
	if p == nil {
		panic("server: nil policy")
	}
	d.engine = eng
	d.policy = p
	d.jobs = make([]int, h)
	d.idle.Reset(h)
	d.idle.SetAll()
	eng.SetHandler(handler)
}

// View queries answered from the occupancy indices.

// Hosts reports the host count.
func (d *dispatcher) Hosts() int { return len(d.jobs) }

// NumJobs reports the jobs resident at host i (queued plus running).
func (d *dispatcher) NumJobs(i int) int { return d.jobs[i] }

// Idle reports whether host i has no jobs.
func (d *dispatcher) Idle(i int) bool { return d.jobs[i] == 0 }

// NextIdleHost reports the lowest-indexed empty host, or -1.
func (d *dispatcher) NextIdleHost() int { return d.idle.Min() }

// MinJobsHost reports the host with the fewest jobs, ties to the lowest
// index — the pick of a linear NumJobs scan, in O(log h). The first call
// allocates the index; steady state is allocation-free.
func (d *dispatcher) MinJobsHost() int {
	if !d.jobsOn {
		d.jobsIdx.Reset(len(d.jobs))
		for i, n := range d.jobs {
			d.jobsIdx.Update(i, float64(n))
		}
		d.jobsOn = true
	}
	i, _ := d.jobsIdx.Min()
	return i
}

// note records that host i now holds n jobs, refreshing its standing in
// the idle freelist and (when active) the jobs argmin.
func (d *dispatcher) note(i, n int) {
	d.jobs[i] = n
	if n == 0 {
		d.idle.Set(i)
	} else {
		d.idle.Clear(i)
	}
	if d.jobsOn {
		d.jobsIdx.Update(i, float64(n))
	}
}

// checkHost panics unless idx names a host: a policy returned it, so an
// index outside the range is a contract violation by the Policy.
func (d *dispatcher) checkHost(idx int) {
	if idx < 0 || idx >= len(d.jobs) {
		panic(fmt.Sprintf("server: policy %q returned host %d of %d", d.policy.Name(), idx, len(d.jobs)))
	}
}

// Simulate runs the full job list through the system and waits for every
// job to finish. Jobs must be sorted by arrival time; Simulate panics if
// they are not. Jobs are renumbered by arrival order as they are fed (the
// slice itself is never written), so records carry that ordinal as their
// ID.
//
// Arrivals are fed lazily: exactly one arrival event is pending at any
// instant, and firing it schedules the next, so the event heap stays
// O(hosts) deep regardless of trace length. The arrivals' FIFO sequence
// numbers are reserved as a block up front, which makes the event order —
// and therefore every simulated record — identical to pre-scheduling the
// whole trace.
func (d *dispatcher) Simulate(jobs []workload.Job) {
	prev := 0.0
	for i, j := range jobs {
		if j.Arrival < prev {
			panic(fmt.Sprintf("server: job %d arrives at %v before %v", i, j.Arrival, prev))
		}
		prev = j.Arrival
	}
	d.feed = jobs
	d.feedNext = 0
	d.feedBase = d.engine.ReserveSeq(len(jobs))
	d.feedNextArrival()
	d.engine.Run()
	d.feed = nil
}

// feedNextArrival schedules the next unscheduled arrival, if any, as an
// evArrival event carrying the job renumbered to its arrival ordinal.
func (d *dispatcher) feedNextArrival() {
	if d.feedNext >= len(d.feed) {
		return
	}
	j := d.feed[d.feedNext]
	j.ID = d.feedNext
	d.engine.ScheduleReserved(j.Arrival, d.feedBase+uint64(d.feedNext), sim.Ev{Kind: evArrival, Job: j})
	d.feedNext++
}

// System is the simulated distributed server of FCFS run-to-completion
// hosts. Build with New, feed jobs in arrival order via Simulate.
type System struct {
	dispatcher
	hosts []host

	central centralQueue // dispatcher queue for pull policies

	onComplete func(JobRecord)

	// Little's-law accounting: time-integral of the number of waiting jobs
	// (queued at hosts or held centrally, excluding jobs in service).
	queueArea   float64
	waitingJobs int
	lastAccrual float64

	// The work argmin activates on a policy's first MinWorkHost query and
	// is kept current by the place/depart/startNextCentral transitions.
	work   hostindex.TimedMin // hosts keyed by readyAt; drained class = idle
	workOn bool

	killAt []float64 // per-host kill cutoffs of a Killing policy, else nil
}

// New builds a distributed server with h hosts and the given policy, using
// a FCFS central queue. Panics if h < 1 or p is nil.
func New(h int, p Policy, onComplete func(JobRecord)) *System {
	return newSystemOn(&sim.Engine{}, h, p, CentralFCFS, onComplete)
}

// newSystemOn wires a System onto an existing engine (fresh or pooled).
// Panics if h < 1 or p is nil.
func newSystemOn(eng *sim.Engine, h int, p Policy, order CentralOrder, onComplete func(JobRecord)) *System {
	s := &System{central: centralQueue{order: order}, onComplete: onComplete}
	s.init(eng, h, p, s)
	s.hosts = make([]host, h)
	if k, ok := p.(Killing); ok {
		s.killAt = make([]float64, h)
		for i := range s.killAt {
			s.killAt[i] = k.KillCutoff(i)
		}
	}
	return s
}

// View interface implementation: the System itself is the policy's view;
// Hosts, NumJobs, Idle, NextIdleHost and MinJobsHost come from the
// dispatcher.

// WorkLeft reports remaining work at host i at the current instant.
func (s *System) WorkLeft(i int) float64 {
	left := s.hosts[i].readyAt - s.engine.Now()
	if left < 0 || !s.hosts[i].running && s.hosts[i].queued() == 0 {
		return 0
	}
	return left
}

// MinWorkHost reports the host with the least unfinished work, ties to
// the lowest index — the pick of a linear WorkLeft scan, in O(log h).
func (s *System) MinWorkHost() int {
	if !s.workOn {
		s.buildWorkIndex()
	}
	return s.work.ArgMin(s.engine.Now())
}

// MinWorkHostIn is MinWorkHost over hosts lo <= i < hi.
// Panics if the range is empty or out of bounds.
func (s *System) MinWorkHostIn(lo, hi int) int {
	if !s.workOn {
		s.buildWorkIndex()
	}
	return s.work.ArgMinRange(lo, hi, s.engine.Now())
}

// buildWorkIndex activates the work argmin on a policy's first query:
// hosts with work enter the tree keyed by their drain instant (readyAt),
// empty hosts form the drained class. From here on every host state
// change keeps the index current.
func (s *System) buildWorkIndex() {
	s.work.Reset(len(s.hosts))
	for i := range s.hosts {
		if s.jobs[i] > 0 {
			s.work.SetKey(i, s.hosts[i].readyAt)
		}
	}
	s.workOn = true
}

// HandleEvent dispatches the engine's typed events.
//
//sim:noalloc
func (s *System) HandleEvent(now float64, ev sim.Ev) {
	switch ev.Kind {
	case evArrival:
		s.feedNextArrival()
		if idx := s.policy.Assign(ev.Job, s); idx == Central {
			s.hold(ev.Job, now)
		} else {
			s.place(idx, ev.Job, now)
		}
	case evDepart:
		s.depart(int(ev.Host), JobRecord{
			ID: ev.Job.ID, Host: int(ev.Host),
			Arrival: ev.Job.Arrival, Size: ev.Job.Size,
			Start: ev.T0, Departure: now,
		}, now)
	}
}

// hold keeps an arriving job at the dispatcher, where a host will pull it
// when free. If some host is already idle the policy should have returned
// it, but be robust and drain immediately — the freelist hands out idle
// hosts lowest-index-first, exactly the order the old full scan used, in
// O(1) per started job instead of O(h) per arrival.
//
//sim:noalloc
func (s *System) hold(job workload.Job, now float64) {
	s.accrueQueue(now)
	s.waitingJobs++
	s.central.Push(job)
	for s.central.Len() > 0 {
		i := s.idle.Min()
		if i < 0 {
			break
		}
		s.startNextCentral(i, now)
	}
}

// place puts a job on host idx — the policy's pick for an arrival, or the
// next host for a killed run: into service if the host is idle, else at
// the back of its FIFO queue. Panics if idx is outside the valid range,
// which is a contract violation by the Policy implementation.
//
//sim:noalloc
func (s *System) place(idx int, job workload.Job, now float64) {
	s.checkHost(idx)
	h := &s.hosts[idx]
	s.note(idx, s.jobs[idx]+1)
	if h.running {
		// The job's work joins the backlog now; start() must not add it
		// again when the job is later dequeued.
		s.accrueQueue(now)
		s.waitingJobs++
		h.enqueue(job)
		h.readyAt += s.runFor(idx, job.Size)
		s.noteWork(idx)
		return
	}
	h.readyAt = now + s.runFor(idx, job.Size)
	s.noteWork(idx)
	s.start(idx, job, now)
}

// runFor reports how long a run of a job of the given size lasts on host
// idx: its size, or the host's kill cutoff when a killing policy stops it
// sooner. This budget, not the size, is the work the run adds to the
// host's backlog.
//
//sim:noalloc
func (s *System) runFor(idx int, size float64) float64 {
	if s.killAt != nil && size > s.killAt[idx] {
		return s.killAt[idx]
	}
	return size
}

// start begins service for a job whose work is already accounted in the
// host's readyAt backlog. The departure event carries the job and the
// service-start instant, from which the JobRecord is rebuilt bit-exactly
// at completion.
//
//sim:noalloc
func (s *System) start(idx int, job workload.Job, now float64) {
	h := &s.hosts[idx]
	h.running = true
	s.engine.Schedule(now+s.runFor(idx, job.Size), sim.Ev{Kind: evDepart, Host: int32(idx), T0: now, Job: job})
}

// depart ends the run on host idx. A completed job emits its record; a
// killed one restarts from scratch on host idx+1 *before* host idx pulls
// its next job, the TAGS scheduling order that fixes event sequence
// numbers among simultaneous events.
//
//sim:noalloc
func (s *System) depart(idx int, rec JobRecord, now float64) {
	h := &s.hosts[idx]
	h.running = false
	s.note(idx, s.jobs[idx]-1)
	if s.runFor(idx, rec.Size) < rec.Size {
		s.place(idx+1, workload.Job{ID: rec.ID, Arrival: rec.Arrival, Size: rec.Size}, now)
	} else if s.onComplete != nil {
		s.onComplete(rec)
	}
	if h.queued() > 0 {
		// readyAt already accounts for the queued work; the work index
		// needs no update.
		next := h.dequeue()
		s.accrueQueue(now)
		s.waitingJobs--
		s.start(idx, next, now)
		return
	}
	if s.central.Len() > 0 {
		s.startNextCentral(idx, now)
		return
	}
	if s.workOn {
		s.work.SetZero(idx)
	}
}

//sim:noalloc
func (s *System) startNextCentral(idx int, now float64) {
	job := s.central.Pop()
	s.accrueQueue(now)
	s.waitingJobs--
	s.hosts[idx].readyAt = now + s.runFor(idx, job.Size)
	s.note(idx, s.jobs[idx]+1)
	s.noteWork(idx)
	s.start(idx, job, now)
}

// noteWork propagates host i's drain instant into the work argmin, when
// active. Only call when host i has live work (jobs > 0).
func (s *System) noteWork(i int) {
	if s.workOn {
		s.work.SetKey(i, s.hosts[i].readyAt)
	}
}

// accrueQueue advances the waiting-jobs time integral to the current
// instant; call before every change to the waiting population.
func (s *System) accrueQueue(now float64) {
	s.queueArea += float64(s.waitingJobs) * (now - s.lastAccrual)
	s.lastAccrual = now
}

// MeanQueueLength reports the time-averaged number of waiting jobs over the
// simulated horizon — E[Q] in the paper's theorem 1, for checking Little's
// law E[Q] = lambda*E[W] against the simulated mean wait.
func (s *System) MeanQueueLength() float64 {
	if s.engine.Now() == 0 {
		return 0
	}
	s.accrueQueue(s.engine.Now())
	return s.queueArea / s.engine.Now()
}

// Now reports the simulator clock.
func (s *System) Now() float64 { return s.engine.Now() }
