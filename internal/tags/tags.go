// Package tags implements TAGS — Task Assignment by Guessing Size
// (Harchol-Balter, ICDCS 2000), the paper's reference [10] and its answer
// for distributed servers where job sizes are *unknown* at dispatch time.
//
// Under TAGS every job starts on Host 1. Host i runs its FCFS queue
// one job at a time; a job that accumulates s_i seconds of service on host
// i without finishing is killed and restarted from scratch at the back of
// host i+1's queue. Big jobs therefore ratchet up the host chain, paying
// wasted work for the anonymity of their size, while small jobs finish on
// the early hosts — TAGS inherits SITA's variance reduction (host i only
// completes jobs in (s_{i-1}, s_i]) and SITA-U's deliberate load
// unbalancing, without needing size estimates.
package tags

import (
	"fmt"
	"math"
	"sort"

	"sita/internal/dist"
	"sita/internal/server"
	"sita/internal/stats"
	"sita/internal/workload"
)

// Result aggregates one TAGS simulation.
type Result struct {
	Slowdown stats.Stream
	Response stats.Stream
	// WastedWork is the total service time spent on runs that were killed,
	// and TotalWork the total useful service time; their ratio is the price
	// TAGS pays for not knowing sizes.
	WastedWork float64
	TotalWork  float64
	// PerHostCompleted counts jobs finishing at each host.
	PerHostCompleted []int64
	Horizon          float64
}

// WasteFraction reports wasted work as a fraction of all work performed.
func (r *Result) WasteFraction() float64 {
	done := r.WastedWork + r.TotalWork
	if done == 0 {
		return 0
	}
	return r.WastedWork / done
}

// chain is the TAGS dispatcher on the server engine: every job starts on
// host 0, and host i kills a run at cutoffs[i]; the last host never kills.
type chain []float64

// Name identifies the policy in reports.
func (chain) Name() string { return "TAGS" }

// Assign sends every job to the first host.
func (chain) Assign(workload.Job, server.View) int { return 0 }

// KillCutoff reports host i's kill cutoff, +Inf on the last host.
func (c chain) KillCutoff(i int) float64 {
	if i < len(c) {
		return c[i]
	}
	return math.Inf(1)
}

// Simulate runs the job list through a TAGS system with the given internal
// cutoffs (len = hosts-1, ascending; host i kills at cutoffs[i], the last
// host never kills) on the FCFS server engine. Jobs must be sorted by
// arrival time. warmup is the fraction of jobs (by arrival order) excluded
// from delay statistics. A job's response is its departure minus its
// arrival (server's wait plus size can differ in the last bit, and
// results/ pins these values), and its wasted work the cutoffs of every
// host before the one it completes on.
// Panics if the cutoffs do not ascend, warmup is outside [0, 1), or the
// jobs are unsorted.
// The jobs slice is never written, so callers may share one job list
// across concurrent runs — the same read-only input contract as
// server.Run.
//
//sim:entry
//sim:readonly jobs
func Simulate(jobs []workload.Job, cutoffs []float64, warmup float64) *Result {
	if !sort.Float64sAreSorted(cutoffs) {
		panic(fmt.Sprintf("tags: cutoffs must ascend, got %v", cutoffs))
	}
	// Affirmative form so NaN is rejected too.
	if !(warmup >= 0 && warmup < 1) {
		panic(fmt.Sprintf("tags: warmup fraction %v outside [0, 1)", warmup))
	}
	hosts := len(cutoffs) + 1
	res := &Result{PerHostCompleted: make([]int64, hosts)}
	skip := int(warmup * float64(len(jobs)))
	server.New(hosts, chain(cutoffs), func(rec server.JobRecord) {
		for _, c := range cutoffs[:rec.Host] {
			res.WastedWork += c
		}
		res.TotalWork += rec.Size
		res.PerHostCompleted[rec.Host]++
		if rec.Departure > res.Horizon {
			res.Horizon = rec.Departure
		}
		if rec.ID < skip {
			return
		}
		response := rec.Departure - rec.Arrival
		res.Response.Add(response)
		slow := response / rec.Size
		if slow < 1 {
			// Floating-point guard: a job served the moment it arrives
			// can round a hair below its size.
			slow = 1
		}
		res.Slowdown.Add(slow)
	}).Simulate(jobs)
	return res
}

// Analysis evaluates TAGS analytically, following the TAGS paper's
// decomposition: host i sees (approximately Poisson) arrivals of every job
// bigger than cutoff s_{i-1}, at rate lambda*P(X > s_{i-1}); its service
// time is min(X, s_i) conditioned on X > s_{i-1}. A job of size in
// (s_{i-1}, s_i] pays the full cutoff s_j plus the wait at every earlier
// host j < i, then waits once more and runs to completion on host i.
type Analysis struct {
	Lambda  float64
	Size    dist.Distribution
	Cutoffs []float64
}

// NewAnalysis validates parameters. Panics if lambda <= 0, size is nil, or
// the cutoffs do not ascend.
func NewAnalysis(lambda float64, size dist.Distribution, cutoffs []float64) Analysis {
	if lambda <= 0 || size == nil {
		panic(fmt.Sprintf("tags: analysis needs lambda > 0 and a size distribution, got %v", lambda))
	}
	if !sort.Float64sAreSorted(cutoffs) {
		panic(fmt.Sprintf("tags: cutoffs must ascend, got %v", cutoffs))
	}
	cp := make([]float64, len(cutoffs))
	copy(cp, cutoffs)
	return Analysis{Lambda: lambda, Size: size, Cutoffs: cp}
}

// hostEdges returns (s_{i-1}, s_i) for host i with s_{-1} treated as the
// support minimum and s_last as the support maximum.
func (a Analysis) hostEdges(i int) (lo, hi float64) {
	suppLo, suppHi := a.Size.Support()
	lo = math.Min(suppLo-1, 0)
	hi = suppHi
	if i > 0 {
		lo = a.Cutoffs[i-1]
	}
	if i < len(a.Cutoffs) {
		hi = a.Cutoffs[i]
	}
	return lo, hi
}

// HostMetrics is the analytic state of one TAGS host.
type HostMetrics struct {
	Host     int
	Rate     float64 // arrival rate into this host
	Load     float64 // utilization including wasted work
	MeanWait float64 // FCFS waiting time at this host
}

// hostState is one host's analytic state, derived from the moment record
// of its interval (lo, hi] — the jobs that finish on it — and the masses
// P(X > lo) arriving and P(X > hi) killed.
type hostState struct {
	HostMetrics
	rec dist.Moments // dist.MeanMoments of (lo, hi]
}

// serviceMoment reports E[min(X, hi)^j | X > lo] * P(X > lo), the
// unnormalized j-th moment of a host's per-visit service time: the
// finishing jobs' partial moment finish plus the killed jobs' hi^j.
func serviceMoment(finish, j, hi, killMass float64) float64 {
	return finish + math.Pow(hi, j)*killMass
}

// host evaluates host i; its MeanWait is +Inf when it is unstable.
func (a Analysis) host(i int) hostState {
	lo, hi := a.hostEdges(i)
	rec := dist.MeanMoments(a.Size, lo, hi)
	surviveMass := 1.0
	if i > 0 {
		surviveMass = dist.Prob(a.Size, lo, math.Inf(1))
	}
	rate := a.Lambda * surviveMass
	h := hostState{HostMetrics: HostMetrics{Host: i, Rate: rate}, rec: rec}
	if surviveMass <= 1e-15 {
		return h
	}
	s1, s2 := rec.M1, rec.M2
	if _, suppHi := a.Size.Support(); hi < suppHi {
		killMass := dist.Prob(a.Size, hi, math.Inf(1))
		s1 = serviceMoment(s1, 1, hi, killMass)
		s2 = serviceMoment(s2, 2, hi, killMass)
	}
	s1 /= surviveMass
	s2 /= surviveMass
	h.Load = rate * s1
	if h.Load >= 1 {
		h.MeanWait = math.Inf(1)
	} else {
		h.MeanWait = rate * s2 / (2 * (1 - h.Load))
	}
	return h
}

// states evaluates every host.
func (a Analysis) states() []hostState {
	out := make([]hostState, len(a.Cutoffs)+1)
	for i := range out {
		out[i] = a.host(i)
	}
	return out
}

// Hosts evaluates every host's arrival rate, load and mean wait; a host is
// reported with MeanWait = +Inf when unstable.
func (a Analysis) Hosts() []HostMetrics {
	out := make([]HostMetrics, len(a.Cutoffs)+1)
	for i := range out {
		out[i] = a.host(i).HostMetrics
	}
	return out
}

// Feasible reports whether every host is stable.
func (a Analysis) Feasible() bool {
	for _, h := range a.Hosts() {
		if h.Load >= 1 {
			return false
		}
	}
	return true
}

// MeanSlowdown evaluates the job-average expected slowdown: a job finishing
// on host i experienced sum_{j<i}(W_j + s_j) + W_i + x, so
// E[S | class i] = 1 + (sum_{j<i}(W_j + s_j) + W_i) * E[1/X | class i].
func (a Analysis) MeanSlowdown() float64 { return a.meanSlowdown(a.states()) }

// meanSlowdown sums the class terms of MeanSlowdown over evaluated hosts in
// host order, rebuilding the prefix of earlier hosts' waits and cutoffs.
func (a Analysis) meanSlowdown(hosts []hostState) float64 {
	total := 0.0
	prefix := 0.0 // sum of (W_j + s_j) over earlier hosts
	for i, h := range hosts {
		if math.IsInf(h.MeanWait, 1) {
			return math.Inf(1)
		}
		if mass := h.rec.Mass; mass > 1e-15 {
			invX := h.rec.Inv1 / mass
			total += mass * (1 + (prefix+h.MeanWait)*invX)
		}
		if i < len(a.Cutoffs) {
			prefix += h.MeanWait + a.Cutoffs[i]
		}
	}
	return total
}

// MeanResponse evaluates the job-average expected response time.
func (a Analysis) MeanResponse() float64 {
	total := 0.0
	prefix := 0.0
	for i, h := range a.states() {
		if math.IsInf(h.MeanWait, 1) {
			return math.Inf(1)
		}
		if mass := h.rec.Mass; mass > 1e-15 {
			meanX := h.rec.M1 / mass
			total += mass * (prefix + h.MeanWait + meanX)
		}
		if i < len(a.Cutoffs) {
			prefix += h.MeanWait + a.Cutoffs[i]
		}
	}
	return total
}

// OptimalCutoffs searches for the TAGS cutoffs minimizing analytic mean
// slowdown for h hosts, by cyclic coordinate descent on a geometric grid —
// the same strategy as the SITA multi-cutoff optimizer, with TAGS' extra
// constraint that wasted work keeps every downstream host stable.
func OptimalCutoffs(lambda float64, size dist.Distribution, h int) ([]float64, error) {
	if h < 2 {
		return nil, fmt.Errorf("tags: need h >= 2, got %d", h)
	}
	suppLo, suppHi := size.Support()
	if suppLo <= 0 {
		suppLo = 1e-12
	}
	if math.IsInf(suppHi, 1) {
		if q, ok := size.(dist.Quantiler); ok {
			suppHi = q.Quantile(1 - 1e-12)
		} else {
			suppHi = suppLo * 1e18
		}
	}
	// Start from the SITA equal-load cutoffs scaled up slightly (TAGS wants
	// higher cutoffs because restarts add load downstream); fall back to a
	// coarse global grid scan for a feasible start.
	start := make([]float64, h-1)
	logLo, logHi := math.Log(suppLo), math.Log(suppHi)
	for i := range start {
		start[i] = math.Exp(logLo + (logHi-logLo)*float64(i+1)/float64(h))
	}
	// The descent moves an.Cutoffs in place and caches every host's state:
	// moving cutoff i changes only the hosts it bounds, i and i+1, and
	// meanSlowdown rebuilds the prefix over the cached hosts in host order,
	// so each objective value is bit-identical to a fresh Analysis.
	an := NewAnalysis(lambda, size, start)
	cuts := an.Cutoffs
	hosts := an.states()
	// move sets cutoff i to c and re-evaluates the two hosts it bounds.
	move := func(i int, c float64) {
		cuts[i] = c
		hosts[i], hosts[i+1] = an.host(i), an.host(i+1)
	}
	objective := func() float64 {
		for i := 1; i < len(cuts); i++ {
			if cuts[i] <= cuts[i-1] {
				return math.Inf(1)
			}
		}
		return an.meanSlowdown(hosts)
	}
	best := objective()
	if math.IsInf(best, 1) {
		const scan = 24
		found := false
		if h == 2 {
			for g := 1; g < scan && !found; g++ {
				c := math.Exp(logLo + (logHi-logLo)*float64(g)/scan)
				move(0, c)
				if v := objective(); !math.IsInf(v, 1) {
					best, found = v, true
				}
			}
		}
		if !found {
			return nil, fmt.Errorf("tags: no stable cutoffs found for lambda=%v h=%d", lambda, h)
		}
	}
	for sweep := 0; sweep < 20; sweep++ {
		improved := false
		for i := range cuts {
			a := suppLo
			if i > 0 {
				a = cuts[i-1]
			}
			b := suppHi
			if i < len(cuts)-1 {
				b = cuts[i+1]
			}
			la, lb := math.Log(a*(1+1e-9)), math.Log(b*(1-1e-9))
			if lb <= la {
				continue
			}
			const gridN = 48
			old := cuts[i]
			bestC, bestV := old, best
			for g := 0; g <= gridN; g++ {
				c := math.Exp(la + (lb-la)*float64(g)/gridN)
				move(i, c)
				if v := objective(); v < bestV {
					bestC, bestV = c, v
				}
			}
			if bestV < best-1e-12*math.Abs(best) {
				move(i, bestC)
				best = bestV
				improved = true
			} else {
				move(i, old)
			}
		}
		if !improved {
			break
		}
	}
	if math.IsInf(best, 1) {
		return nil, fmt.Errorf("tags: optimization diverged for lambda=%v h=%d", lambda, h)
	}
	return cuts, nil
}
