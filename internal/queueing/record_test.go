package queueing

import (
	"math"
	"math/rand/v2"
	"testing"

	"sita/internal/dist"
)

// sameBits reports whether a and b are the same float64, bit for bit; any
// two NaNs match.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestMomentRecordMatchesTruncatedMG1 is the differential test of the
// moment record: every per-host metric the SITA analysis and the cutoff
// objectives derive from one dist.Moments record must equal, bit for bit,
// the reference evaluation MG1{Size: dist.NewTruncated(...)}, which asks
// the truncated distribution for each moment separately. Intervals and
// rates are random, so stable and unstable hosts are both covered.
func TestMomentRecordMatchesTruncatedMG1(t *testing.T) {
	// Cutoffs are drawn log-uniformly from [lo, hi]. The exponential's
	// range stays clear of 0, where E[1/X^2] diverges.
	for _, tc := range []struct {
		name   string
		size   dist.Distribution
		lo, hi float64
	}{
		{"bounded-pareto", c90ish(), 60, 2.2e6},
		{"uniform", dist.NewUniform(10, 1000), 5, 1200},
		{"exponential", dist.NewExponential(100), 5, 400},
	} {
		size := tc.size
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(7, uint64(len(tc.name))))
			logLo, logHi := math.Log(tc.lo), math.Log(tc.hi)
			for n := 0; n < 40; n++ {
				a := math.Exp(logLo + (logHi-logLo)*rng.Float64())
				b := math.Exp(logLo + (logHi-logLo)*rng.Float64())
				if a > b {
					a, b = b, a
				}
				rec := dist.IntervalMoments(size, a, b)
				if rec.Mass <= 1e-15 {
					continue
				}
				// Total rates from a tenth to twice the saturation rate of
				// the interval, so some hosts are unstable.
				lambda := (0.1 + 1.9*rng.Float64()) / rec.M1
				ref := MG1{Lambda: lambda * rec.Mass, Size: dist.NewTruncated(size, a, b)}
				q := newPK(lambda, rec)
				for _, c := range []struct {
					metric   string
					got, ref float64
				}{
					{"Load", q.rho, ref.Load()},
					{"MeanWait", q.meanWait(), ref.MeanWait()},
					{"WaitSecondMoment", q.waitSecondMoment(), ref.WaitSecondMoment()},
					{"MeanResponse", q.meanResponse(), ref.MeanResponse()},
					{"ResponseSecondMoment", q.responseSecondMoment(), ref.ResponseSecondMoment()},
					{"ResponseVariance", q.responseVariance(), ref.ResponseVariance()},
					{"MeanSlowdown", q.meanSlowdown(), ref.MeanSlowdown()},
					{"SlowdownSecondMoment", q.slowdownSecondMoment(), ref.SlowdownSecondMoment()},
					{"SlowdownVariance", q.slowdownVariance(), ref.SlowdownVariance()},
					{"MeanQueueLength", q.meanQueueLength(), ref.MeanQueueLength()},
				} {
					if !sameBits(c.got, c.ref) {
						t.Fatalf("(%g, %g] lambda %g: record %s = %v, truncated MG1 = %v", a, b, lambda, c.metric, c.got, c.ref)
					}
				}
				// The mean-only path reads a record without M3 and Inv2.
				m := intervalMean(lambda, size, a, b)
				if !sameBits(m.mass, rec.Mass) || !sameBits(m.load, lambda*rec.M1) ||
					!sameBits(m.slowdown, ref.MeanSlowdown()) {
					t.Fatalf("(%g, %g] lambda %g: mean-only host %+v, want mass %v load %v slowdown %v",
						a, b, lambda, m, rec.Mass, lambda*rec.M1, ref.MeanSlowdown())
				}
				// The SITA host serving the same interval, as the middle
				// host of three, against the reference.
				hm := NewSITA(lambda, size, []float64{a, b}).hostMetrics(1, size.Moment(1))
				for _, c := range []struct {
					metric   string
					got, ref float64
				}{
					{"JobFraction", hm.JobFraction, rec.Mass},
					{"Load", hm.Load, lambda * dist.PartialMoment(size, 1, a, b)},
					{"MeanWait", hm.MeanWait, ref.MeanWait()},
					{"MeanSlowdown", hm.MeanSlowdown, ref.MeanSlowdown()},
					{"VarSlowdown", hm.VarSlowdown, ref.SlowdownVariance()},
					{"MeanResponse", hm.MeanResponse, ref.MeanResponse()},
					{"VarResponse", hm.VarResponse, ref.ResponseVariance()},
				} {
					if !sameBits(c.got, c.ref) {
						t.Fatalf("(%g, %g] lambda %g: HostAnalysis %s = %v, truncated MG1 = %v", a, b, lambda, c.metric, c.got, c.ref)
					}
				}
			}
		})
	}
}

// The mean-only objectives run tens of thousands of times per cutoff
// search, so they must not allocate.
func TestMeanOnlyObjectivesDoNotAllocate(t *testing.T) {
	var size dist.Distribution = c90ish()
	lambda := 2 * 0.7 / size.Moment(1)
	c := EqualLoadCutoff(size)
	hosts := []hostMean{{}, {}, {}}
	cuts := []float64{c / 2, c}
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		sink += meanSlowdownAt(lambda, size, c)
		short, long := hostSlowdowns(lambda, size, c)
		sink += short + long
		for i := range hosts {
			hosts[i] = hostMeanAt(lambda, size, cuts, i)
		}
		sink += meanSlowdown(hosts)
	})
	if allocs != 0 {
		t.Fatalf("mean-only objectives allocate %v times per evaluation (sink %v)", allocs, sink)
	}
}
