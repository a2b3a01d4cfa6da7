package dist

import "math"

// Moments is the moment record of one size interval (lo, hi]: its
// probability mass and the unnormalised partial moments
// E[X^j ; lo < X <= hi] for j in {1, 2, 3, -1, -2}, each computed once by
// Prob and PartialMoment. The conditional moment E[X^j | lo < X <= hi] is
// an entry divided by Mass. Every per-host M/G/1 formula in the queueing
// analysis reads its moments from one such record.
type Moments struct {
	Mass       float64 // P(lo < X <= hi)
	M1, M2, M3 float64 // E[X^j ; lo < X <= hi] for j = 1, 2, 3
	Inv1, Inv2 float64 // E[X^-j ; lo < X <= hi] for j = 1, 2
}

// IntervalMoments builds the full record of (lo, hi].
func IntervalMoments(d Distribution, lo, hi float64) Moments {
	m := MeanMoments(d, lo, hi)
	m.M3 = PartialMoment(d, 3, lo, hi)
	m.Inv2 = PartialMoment(d, -2, lo, hi)
	return m
}

// MeanMoments builds the part of the record of (lo, hi] that mean waiting
// times, responses and slowdowns read: Mass, M1, M2 and Inv1. M3 and Inv2,
// which only second moments need, are NaN.
func MeanMoments(d Distribution, lo, hi float64) Moments {
	return Moments{
		Mass: Prob(d, lo, hi),
		M1:   PartialMoment(d, 1, lo, hi),
		M2:   PartialMoment(d, 2, lo, hi),
		M3:   math.NaN(),
		Inv1: PartialMoment(d, -1, lo, hi),
		Inv2: math.NaN(),
	}
}

// WholeMoments is the record of the whole distribution: Mass 1 and the raw
// moments d.Moment(j), so conditional and raw moments coincide exactly.
func WholeMoments(d Distribution) Moments {
	return Moments{
		Mass: 1,
		M1:   d.Moment(1),
		M2:   d.Moment(2),
		M3:   d.Moment(3),
		Inv1: d.Moment(-1),
		Inv2: d.Moment(-2),
	}
}
