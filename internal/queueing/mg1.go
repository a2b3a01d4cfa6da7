// Package queueing implements the analytical side of the paper: the
// Pollaczek-Khinchine M/G/1 formulas (theorem 1), the Erlang-C M/M/h
// formulas, the Lee-Longton M/G/h approximation used for Least-Work-Left,
// per-host SITA analysis, and the cutoff searches that define SITA-E,
// SITA-U-opt and SITA-U-fair.
//
// Conventions: hosts have unit speed, so a job's service time equals its
// size; a queue with utilization >= 1 is unstable and all its delay metrics
// are +Inf. Slowdown is S = T/X = 1 + W/X where T is response time, W
// waiting time and X the job's size. (The paper's theorem 1 writes
// E{S} = E{W}E{1/X}, i.e. it drops the deterministic +1; we keep the +1 so
// that simulation and analysis use the identical definition. The comparisons
// between policies are unaffected.)
package queueing

import (
	"fmt"
	"math"

	"sita/internal/dist"
)

// MG1 is a single FCFS M/G/1 queue: Poisson arrivals at rate Lambda, service
// times from Size.
type MG1 struct {
	Lambda float64
	Size   dist.Distribution
}

// NewMG1 validates the arrival rate. Panics if lambda <= 0 or size is nil.
func NewMG1(lambda float64, size dist.Distribution) MG1 {
	if lambda <= 0 || size == nil {
		panic(fmt.Sprintf("queueing: MG1 needs lambda > 0 and a size distribution, got %v", lambda))
	}
	return MG1{Lambda: lambda, Size: size}
}

// pk derives the Pollaczek-Khinchine evaluation from the whole-distribution
// moment record.
func (q MG1) pk() pk { return newPK(q.Lambda, dist.WholeMoments(q.Size)) }

// Load reports the utilization rho = lambda * E[X].
func (q MG1) Load() float64 { return q.pk().rho }

// Stable reports whether rho < 1.
func (q MG1) Stable() bool { return q.pk().stable() }

// MeanWait reports E[W] = lambda*E[X^2] / (2(1-rho)), the
// Pollaczek-Khinchine mean waiting time; +Inf if unstable.
func (q MG1) MeanWait() float64 { return q.pk().meanWait() }

// WaitSecondMoment reports E[W^2] = 2E[W]^2 + lambda*E[X^3]/(3(1-rho))
// (Takacs); +Inf if unstable.
func (q MG1) WaitSecondMoment() float64 { return q.pk().waitSecondMoment() }

// MeanResponse reports E[T] = E[W] + E[X].
func (q MG1) MeanResponse() float64 { return q.pk().meanResponse() }

// ResponseSecondMoment reports E[T^2] = E[W^2] + 2E[W]E[X] + E[X^2], using
// the independence of a job's own size from its FCFS waiting time.
func (q MG1) ResponseSecondMoment() float64 { return q.pk().responseSecondMoment() }

// ResponseVariance reports Var(T).
func (q MG1) ResponseVariance() float64 { return q.pk().responseVariance() }

// MeanSlowdown reports E[S] = 1 + E[W] * E[1/X]. In FCFS M/G/1 a job's
// waiting time is independent of its own size, so the expectation factors.
func (q MG1) MeanSlowdown() float64 { return q.pk().meanSlowdown() }

// SlowdownSecondMoment reports E[S^2] = 1 + 2E[W]E[1/X] + E[W^2]E[1/X^2].
func (q MG1) SlowdownSecondMoment() float64 { return q.pk().slowdownSecondMoment() }

// SlowdownVariance reports Var(S).
func (q MG1) SlowdownVariance() float64 { return q.pk().slowdownVariance() }

// MeanQueueLength reports E[Q] = lambda * E[W] (Little's law on the waiting
// room).
func (q MG1) MeanQueueLength() float64 { return q.pk().meanQueueLength() }

// pk is the Pollaczek-Khinchine evaluation of one FCFS M/G/1 queue from a
// moment record: arrival rate lambda*Mass and service moments the record's
// conditional moments, each divided out once. MG1, the SITA hosts and the
// cutoff objectives all evaluate their queues through it.
type pk struct {
	lambda     float64 // arrival rate into the queue
	rho        float64 // utilization lambda * E[X]
	m1, m2, m3 float64 // E[X^j] for j = 1, 2, 3
	inv1, inv2 float64 // E[X^-j] for j = 1, 2
}

// newPK builds the queue fed at total rate lambda with the jobs of record
// m: its own rate is lambda*m.Mass.
func newPK(lambda float64, m dist.Moments) pk {
	q := pk{
		lambda: lambda * m.Mass,
		m1:     m.M1 / m.Mass,
		m2:     m.M2 / m.Mass,
		m3:     m.M3 / m.Mass,
		inv1:   m.Inv1 / m.Mass,
		inv2:   m.Inv2 / m.Mass,
	}
	q.rho = q.lambda * q.m1
	return q
}

func (q pk) stable() bool { return q.rho < 1 }

func (q pk) meanWait() float64 {
	if q.rho >= 1 {
		return math.Inf(1)
	}
	return q.lambda * q.m2 / (2 * (1 - q.rho))
}

func (q pk) waitSecondMoment() float64 {
	if q.rho >= 1 {
		return math.Inf(1)
	}
	w := q.meanWait()
	return 2*w*w + q.lambda*q.m3/(3*(1-q.rho))
}

func (q pk) meanResponse() float64 { return q.meanWait() + q.m1 }

func (q pk) responseSecondMoment() float64 {
	if !q.stable() {
		return math.Inf(1)
	}
	return q.waitSecondMoment() + 2*q.meanWait()*q.m1 + q.m2
}

func (q pk) responseVariance() float64 {
	if !q.stable() {
		return math.Inf(1)
	}
	t := q.meanResponse()
	return q.responseSecondMoment() - t*t
}

// meanSlowdown reads only Mass, M1, M2 and Inv1 of the record, so it is
// exact on a dist.MeanMoments record.
func (q pk) meanSlowdown() float64 {
	if !q.stable() {
		return math.Inf(1)
	}
	return 1 + q.meanWait()*q.inv1
}

func (q pk) slowdownSecondMoment() float64 {
	if !q.stable() {
		return math.Inf(1)
	}
	return 1 + 2*q.meanWait()*q.inv1 + q.waitSecondMoment()*q.inv2
}

func (q pk) slowdownVariance() float64 {
	if !q.stable() {
		return math.Inf(1)
	}
	s := q.meanSlowdown()
	return q.slowdownSecondMoment() - s*s
}

func (q pk) meanQueueLength() float64 {
	if !q.stable() {
		return math.Inf(1)
	}
	return q.lambda * q.meanWait()
}

// MG1PS models an M/G/1 Processor-Sharing queue: the paper's footnote-1
// reference for perfect fairness. PS response time is insensitive to the
// service distribution beyond its mean: E[T | X = x] = x/(1-rho), so every
// job's expected slowdown is exactly 1/(1-rho).
type MG1PS struct {
	Lambda float64
	Size   dist.Distribution
}

// Load reports the utilization rho = lambda * E[X].
func (q MG1PS) Load() float64 { return q.Lambda * q.Size.Moment(1) }

// MeanResponse reports E[T] = E[X]/(1-rho); +Inf if unstable.
func (q MG1PS) MeanResponse() float64 {
	rho := q.Load()
	if rho >= 1 {
		return math.Inf(1)
	}
	return q.Size.Moment(1) / (1 - rho)
}

// MeanSlowdown reports E[S] = 1/(1-rho), identical for every job size.
func (q MG1PS) MeanSlowdown() float64 {
	rho := q.Load()
	if rho >= 1 {
		return math.Inf(1)
	}
	return 1 / (1 - rho)
}
