package queueing

import (
	"fmt"
	"math"

	"sita/internal/dist"
)

// Multi-host cutoff searches (h > 2). The paper sidesteps these because the
// search space grows and runtime estimates must be more precise (section 5);
// it instead reuses the 2-host cutoff with two host groups. We implement the
// full h-1-cutoff searches anyway as the "expensive" baseline, so the
// grouped scheme can be compared against it (an ablation the paper alludes
// to but does not run).

// EqualLoadCutoffs returns the SITA-E cutoffs for h hosts: h-1 cutoffs
// splitting the total work into h equal shares.
func EqualLoadCutoffs(size dist.Distribution, h int) ([]float64, error) {
	if h < 2 {
		return nil, fmt.Errorf("queueing: EqualLoadCutoffs needs h >= 2, got %d", h)
	}
	total := size.Moment(1)
	cuts := make([]float64, h-1)
	for i := 1; i < h; i++ {
		cuts[i-1] = CutoffForShortLoad(1, size, total*float64(i)/float64(h))
	}
	return cuts, nil
}

// ascending reports whether cuts strictly ascend; the objectives are +Inf
// elsewhere.
func ascending(cuts []float64) bool {
	for i := 1; i < len(cuts); i++ {
		if cuts[i] <= cuts[i-1] {
			return false
		}
	}
	return true
}

// OptimalCutoffs returns SITA-U-opt cutoffs for h hosts by cyclic coordinate
// descent: starting from the equal-load cutoffs, each cutoff in turn is
// optimized by golden-section search between its neighbors until the
// objective stops improving.
func OptimalCutoffs(lambda float64, size dist.Distribution, h int) ([]float64, error) {
	if h < 2 {
		return nil, fmt.Errorf("queueing: OptimalCutoffs needs h >= 2, got %d", h)
	}
	if h == 2 {
		c, err := OptimalCutoff(lambda, size)
		if err != nil {
			return nil, err
		}
		return []float64{c}, nil
	}
	lo, hi := supportBounds(size)
	start, err := EqualLoadCutoffs(size, h)
	if err != nil {
		return nil, err
	}
	if !ascending(start) {
		return nil, fmt.Errorf("%w: equal-load start infeasible for h=%d", ErrInfeasible, h)
	}
	// The descent moves cuts, NewSITA's private copy, in place and caches
	// every host's mean-only evaluation: moving cutoff i changes only the
	// hosts it bounds, i and i+1, and meanSlowdown re-adds the cached terms
	// in host order, so each objective value is bit-identical to a full
	// Analyze.
	cuts := NewSITA(lambda, size, start).Cutoffs
	hosts := make([]hostMean, h)
	for k := range hosts {
		hosts[k] = hostMeanAt(lambda, size, cuts, k)
	}
	best := meanSlowdown(hosts)
	if math.IsInf(best, 1) {
		return nil, fmt.Errorf("%w: equal-load start infeasible for h=%d", ErrInfeasible, h)
	}
	const phi = 0.6180339887498949
	for sweep := 0; sweep < 30; sweep++ {
		improved := false
		for i := range cuts {
			a := lo
			if i > 0 {
				a = cuts[i-1]
			}
			b := hi
			if i < len(cuts)-1 {
				b = cuts[i+1]
			}
			la, lb := math.Log(a*(1+1e-9)), math.Log(b*(1-1e-9))
			if lb <= la {
				continue
			}
			f := func(lc float64) float64 {
				old, hOld, hNext := cuts[i], hosts[i], hosts[i+1]
				cuts[i] = math.Exp(lc)
				v := math.Inf(1)
				if ascending(cuts) {
					hosts[i], hosts[i+1] = hostMeanAt(lambda, size, cuts, i), hostMeanAt(lambda, size, cuts, i+1)
					v = meanSlowdown(hosts)
				}
				cuts[i], hosts[i], hosts[i+1] = old, hOld, hNext
				return v
			}
			// Coarse grid to escape local flats, then golden-section.
			const gridN = 32
			bestL, bestV := math.Log(cuts[i]), best
			for g := 0; g <= gridN; g++ {
				lc := la + (lb-la)*float64(g)/gridN
				if v := f(lc); v < bestV {
					bestL, bestV = lc, v
				}
			}
			step := (lb - la) / gridN
			ga, gb := math.Max(la, bestL-step), math.Min(lb, bestL+step)
			x1 := gb - phi*(gb-ga)
			x2 := ga + phi*(gb-ga)
			f1, f2 := f(x1), f(x2)
			for it := 0; it < 60; it++ {
				if f1 < f2 {
					gb, x2, f2 = x2, x1, f1
					x1 = gb - phi*(gb-ga)
					f1 = f(x1)
				} else {
					ga, x1, f1 = x1, x2, f2
					x2 = ga + phi*(gb-ga)
					f2 = f(x2)
				}
			}
			lc := (ga + gb) / 2
			if v := f(lc); v < bestV {
				bestL, bestV = lc, v
			}
			if bestV < best-1e-12*math.Abs(best) {
				cuts[i] = math.Exp(bestL)
				hosts[i], hosts[i+1] = hostMeanAt(lambda, size, cuts, i), hostMeanAt(lambda, size, cuts, i+1)
				best = bestV
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return cuts, nil
}

// FairCutoffs returns SITA-U-fair cutoffs for h hosts: every host's expected
// slowdown equals a common value tau. For a given tau the cutoffs are built
// left to right (host i's slowdown is increasing in its upper cutoff), and
// tau itself is then bisected on the sign of the last host's slowdown error.
func FairCutoffs(lambda float64, size dist.Distribution, h int) ([]float64, error) {
	if h < 2 {
		return nil, fmt.Errorf("queueing: FairCutoffs needs h >= 2, got %d", h)
	}
	if h == 2 {
		c, err := FairCutoff(lambda, size)
		if err != nil {
			return nil, err
		}
		return []float64{c}, nil
	}
	lo, hi := supportBounds(size)

	// hostSlowdown evaluates host (prev, c] under total rate lambda; a host
	// whose interval has (numerically) zero mass has an empty queue, so its
	// slowdown is 1.
	hostSlowdown := func(prev, c float64) float64 {
		if h := intervalMean(lambda, size, prev, c); h.mass != 0 {
			return h.slowdown
		}
		return 1
	}

	// cutsForTau builds h-1 cutoffs so hosts 1..h-1 each hit slowdown tau;
	// it reports the last host's slowdown (or +Inf when infeasible).
	cutsForTau := func(tau float64) ([]float64, float64) {
		cuts := make([]float64, h-1)
		prev := lo
		for i := 0; i < h-1; i++ {
			a, b := prev*(1+1e-12), hi
			if hostSlowdown(prev, b) < tau {
				// Even absorbing everything stays below tau: saturate.
				cuts[i] = b
				prev = b
				continue
			}
			for it := 0; it < 100; it++ {
				mid := math.Sqrt(a * b)
				if hostSlowdown(prev, mid) < tau {
					a = mid
				} else {
					b = mid
				}
			}
			cuts[i] = math.Sqrt(a * b)
			prev = cuts[i]
		}
		return cuts, hostSlowdown(prev, hi)
	}

	// Bisect tau: as tau grows each host absorbs more jobs, leaving the last
	// host less work, so lastSlowdown(tau) decreases.
	tauLo, tauHi := 1+1e-9, 2.0
	for i := 0; ; i++ {
		_, last := cutsForTau(tauHi)
		if last <= tauHi {
			break
		}
		tauHi *= 4
		if i > 60 {
			return nil, fmt.Errorf("%w: fairness target diverges for h=%d", ErrInfeasible, h)
		}
	}
	for i := 0; i < 100; i++ {
		mid := math.Sqrt(tauLo * tauHi)
		_, last := cutsForTau(mid)
		if last > mid {
			tauLo = mid
		} else {
			tauHi = mid
		}
	}
	cuts, _ := cutsForTau(math.Sqrt(tauLo * tauHi))
	for i := 1; i < len(cuts); i++ {
		if cuts[i] <= cuts[i-1] {
			return nil, fmt.Errorf("%w: degenerate fair cutoffs %v", ErrInfeasible, cuts)
		}
	}
	if !NewSITA(lambda, size, cuts).Feasible() {
		return nil, fmt.Errorf("%w: fair cutoffs unstable %v", ErrInfeasible, cuts)
	}
	return cuts, nil
}
