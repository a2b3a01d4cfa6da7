package main

import (
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"sort"
)

// Metric is one named value in the result line.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last line of standard output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// ValidName reports whether s may name a metric or workload: it starts
// with a letter or digit and is at most 64 letters, digits, '_', '.' and
// '-'.
func ValidName(s string) bool { return nameRE.MatchString(s) }

// ValidUnit reports whether s may be a metric's unit.
func ValidUnit(s string) bool { return unitRE.MatchString(s) }

// metricDef is a metric the benchmark promises to print.
type metricDef struct {
	Name, Unit string
}

// Emit checks that got holds exactly the metrics in want, with their
// units, and that every name and value is well formed, then returns the
// result line.
func Emit(want []metricDef, got map[string]float64, attempted, failed int64) ([]byte, error) {
	res := Result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]Metric{}}
	for _, d := range want {
		if !ValidName(d.Name) || !ValidUnit(d.Unit) {
			return nil, fmt.Errorf("malformed metric %q (unit %q)", d.Name, d.Unit)
		}
		v, ok := got[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		res.Metrics[d.Name] = Metric{Value: v, Unit: d.Unit}
	}
	if len(got) != len(want) {
		var extra []string
		for k := range got {
			if _, ok := res.Metrics[k]; !ok {
				extra = append(extra, k)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("metrics measured but not declared: %v", extra)
	}
	if attempted < 1 {
		return nil, fmt.Errorf("attempted %d operations", attempted)
	}
	return json.Marshal(res)
}

// tailCandidates are the percentiles a tail metric may report, highest
// first. A percentile qualifies when at least minBeyond samples lie
// beyond it.
var tailCandidates = []float64{99, 95, 90, 75, 50}

const minBeyond = 10

// TailPercentile picks the highest candidate percentile with at least ten
// of n samples beyond it. With fewer than 20 samples none qualifies, and
// it returns 100: the maximum, the only honest tail statement left.
func TailPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if n-rank(p, n) >= minBeyond {
			return p
		}
	}
	return 100
}

// rank is the 1-based nearest-rank index of percentile p among n samples.
func rank(p float64, n int) int {
	k := int(math.Ceil(p / 100 * float64(n)))
	return min(max(k, 1), n)
}

// Percentile returns the nearest-rank percentile p of xs (not modified).
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(p, len(s))-1]
}

// Median returns the median of xs, averaging the middle pair.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// Tail summarizes latency samples as the TailPercentile of their count.
type Tail struct {
	P     float64 // the percentile reported
	Value float64
	N     int // samples
}

// TailOf returns the tail statistic of xs.
func TailOf(xs []float64) Tail {
	p := TailPercentile(len(xs))
	return Tail{P: p, Value: Percentile(xs, p), N: len(xs)}
}

func (t Tail) String() string {
	return fmt.Sprintf("p%g=%.4g (n=%d)", t.P, t.Value, t.N)
}
