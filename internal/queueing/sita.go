package queueing

import (
	"fmt"
	"math"
	"sort"

	"sita/internal/dist"
)

// SITA analyzes a size-interval task assignment system: h hosts, host i
// serving jobs whose size falls in (cutoff[i-1], cutoff[i]], each host an
// independent FCFS M/G/1 queue (Poisson splitting of a Poisson stream by an
// i.i.d. size attribute yields independent Poisson streams).
type SITA struct {
	Lambda  float64 // total arrival rate into the dispatcher
	Size    dist.Distribution
	Cutoffs []float64 // ascending internal cutoffs; len = hosts-1
}

// NewSITA validates rate and cutoff ordering. Panics if lambda <= 0, size
// is nil, or the cutoffs do not strictly ascend.
func NewSITA(lambda float64, size dist.Distribution, cutoffs []float64) SITA {
	if lambda <= 0 || size == nil {
		panic(fmt.Sprintf("queueing: SITA needs lambda > 0 and size dist, got %v", lambda))
	}
	if !sort.Float64sAreSorted(cutoffs) {
		panic(fmt.Sprintf("queueing: SITA cutoffs must ascend, got %v", cutoffs))
	}
	cp := make([]float64, len(cutoffs))
	copy(cp, cutoffs)
	return SITA{Lambda: lambda, Size: size, Cutoffs: cp}
}

// Hosts reports the number of hosts (len(Cutoffs)+1).
func (s SITA) Hosts() int { return len(s.Cutoffs) + 1 }

// interval reports the size interval (lo, hi] served by host i of a SITA
// system over size with the given cutoffs. It takes the fields rather than
// a SITA so that the cutoffs of the mean-only objectives stay on the stack.
func interval(size dist.Distribution, cutoffs []float64, i int) (lo, hi float64) {
	suppLo, suppHi := size.Support()
	lo = suppLo - 1 // strictly below the support so the first interval catches the minimum
	if lo < 0 {
		lo = 0 // job sizes are positive
		if suppLo <= 0 {
			lo = suppLo - 1
		}
	}
	hi = suppHi
	if i > 0 {
		lo = cutoffs[i-1]
	}
	if i < len(cutoffs) {
		hi = cutoffs[i]
	}
	return lo, hi
}

// HostMetrics describes one host's analytic behaviour under SITA.
type HostMetrics struct {
	Host         int
	Lo, Hi       float64 // size interval (Lo, Hi]
	JobFraction  float64 // fraction of all jobs routed here
	LoadFraction float64 // fraction of total work routed here
	Load         float64 // utilization of this host
	MeanWait     float64
	MeanSlowdown float64
	VarSlowdown  float64
	MeanResponse float64
	VarResponse  float64
}

// HostAnalysis computes the per-host metrics, each host's from one moment
// record of its interval. Hosts whose size interval has (numerically) zero
// probability mass report zeros with JobFraction 0.
func (s SITA) HostAnalysis() []HostMetrics {
	out := make([]HostMetrics, s.Hosts())
	mean := s.Size.Moment(1)
	for i := range out {
		out[i] = s.hostMetrics(i, mean)
	}
	return out
}

// hostMetrics evaluates host i; mean is the whole distribution's E[X].
func (s SITA) hostMetrics(i int, mean float64) HostMetrics {
	lo, hi := interval(s.Size, s.Cutoffs, i)
	m := HostMetrics{Host: i, Lo: lo, Hi: hi}
	rec := dist.IntervalMoments(s.Size, lo, hi)
	if rec.Mass <= 1e-15 {
		return m
	}
	m.JobFraction = rec.Mass
	m.LoadFraction = rec.M1 / mean
	m.Load = s.Lambda * rec.M1
	q := newPK(s.Lambda, rec)
	m.MeanWait = q.meanWait()
	m.MeanSlowdown = q.meanSlowdown()
	m.VarSlowdown = q.slowdownVariance()
	m.MeanResponse = q.meanResponse()
	m.VarResponse = q.responseVariance()
	return m
}

// hostMean is the part of a host's HostMetrics the cutoff objectives read:
// JobFraction as mass, Load and MeanSlowdown. It is the zero value for a
// host whose interval has (numerically) zero mass.
type hostMean struct {
	mass, load, slowdown float64
}

// intervalMean evaluates the host serving (lo, hi] under total arrival
// rate lambda from a mean-only moment record: no variances.
func intervalMean(lambda float64, size dist.Distribution, lo, hi float64) hostMean {
	rec := dist.MeanMoments(size, lo, hi)
	if rec.Mass <= 1e-15 {
		return hostMean{}
	}
	return hostMean{mass: rec.Mass, load: lambda * rec.M1, slowdown: newPK(lambda, rec).meanSlowdown()}
}

// hostMeanAt evaluates host i of the SITA system (lambda, size, cutoffs)
// mean-only.
func hostMeanAt(lambda float64, size dist.Distribution, cutoffs []float64, i int) hostMean {
	lo, hi := interval(size, cutoffs, i)
	return intervalMean(lambda, size, lo, hi)
}

// meanSlowdown is Analyze().MeanSlowdown as the cutoff objectives read it:
// +Inf when any host's load reaches 1, else the job-weighted host mean
// slowdowns summed in host order, exactly as Analyze sums them.
func meanSlowdown(hosts []hostMean) float64 {
	es := 0.0
	for _, h := range hosts {
		if h.load >= 1 {
			return math.Inf(1)
		}
		if h.mass == 0 {
			continue
		}
		es += h.mass * h.slowdown
	}
	return es
}

// Feasible reports whether every host's utilization is below 1.
func (s SITA) Feasible() bool {
	for i := 0; i < s.Hosts(); i++ {
		if hostMeanAt(s.Lambda, s.Size, s.Cutoffs, i).load >= 1 {
			return false
		}
	}
	return true
}

// Report aggregates per-host metrics into job-average system metrics.
type Report struct {
	Hosts         []HostMetrics
	MeanSlowdown  float64
	VarSlowdown   float64
	MeanResponse  float64
	VarResponse   float64
	SystemLoad    float64 // average utilization across hosts
	LoadFractions []float64
}

// Analyze produces the full analytic report for the SITA system.
func (s SITA) Analyze() Report {
	hosts := s.HostAnalysis()
	r := Report{Hosts: hosts, LoadFractions: make([]float64, len(hosts))}
	var es, es2, et, et2, loadSum float64
	for i, m := range hosts {
		r.LoadFractions[i] = m.LoadFraction
		loadSum += m.Load
		if m.JobFraction == 0 {
			continue
		}
		es += m.JobFraction * m.MeanSlowdown
		es2 += m.JobFraction * (m.VarSlowdown + m.MeanSlowdown*m.MeanSlowdown)
		et += m.JobFraction * m.MeanResponse
		et2 += m.JobFraction * (m.VarResponse + m.MeanResponse*m.MeanResponse)
	}
	r.MeanSlowdown = es
	r.VarSlowdown = es2 - es*es
	r.MeanResponse = et
	r.VarResponse = et2 - et*et
	r.SystemLoad = loadSum / float64(len(hosts))
	return r
}

// MeanSlowdown is a convenience accessor for Analyze().MeanSlowdown.
func (s SITA) MeanSlowdown() float64 { return s.Analyze().MeanSlowdown }

// RandomSplit analyzes the Random policy: Bernoulli splitting sends each
// host an independent Poisson stream at rate lambda/h with the *unreduced*
// size distribution; every host is an M/G/1 carrying the full service-time
// variability. Panics if h <= 0.
func RandomSplit(lambda float64, size dist.Distribution, h int) MG1 {
	if h <= 0 {
		panic(fmt.Sprintf("queueing: RandomSplit needs h > 0, got %d", h))
	}
	return NewMG1(lambda/float64(h), size)
}

// RoundRobinSplit approximates the Round-Robin policy: each host sees an
// E_h/G/1 queue (Erlang-h interarrivals, Ca^2 = 1/h) with the full size
// distribution. Panics if h <= 0.
func RoundRobinSplit(lambda float64, size dist.Distribution, h int) GG1 {
	if h <= 0 {
		panic(fmt.Sprintf("queueing: RoundRobinSplit needs h > 0, got %d", h))
	}
	return NewGG1(lambda/float64(h), 1/float64(h), size)
}

// LWL models Least-Work-Left (equivalently Central-Queue) as an M/G/h
// queue.
func LWL(lambda float64, size dist.Distribution, h int) MGh {
	return NewMGh(lambda, size, h)
}

// SlowdownOfWait converts a mean waiting time into a mean slowdown for jobs
// drawn from size: E[S] = 1 + E[W]E[1/X]. Exposed for callers composing
// their own approximations.
func SlowdownOfWait(meanWait float64, size dist.Distribution) float64 {
	if math.IsInf(meanWait, 1) {
		return math.Inf(1)
	}
	return 1 + meanWait*size.Moment(-1)
}
