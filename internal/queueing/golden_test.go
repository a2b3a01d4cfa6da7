package queueing_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"sita/internal/dist"
	"sita/internal/queueing"
	"sita/internal/tags"
	"sita/internal/trace"
)

// The analytic golden suite pins the exact bits of every cutoff search and
// of every analytic report field the reproduction derives from them: the
// 2-host SITA-U-opt, SITA-U-fair and rule-of-thumb cutoffs, the h-host
// SITA-U-opt/fair cutoffs, the TAGS kill cutoffs, and the full SITA and
// TAGS analyses at those cutoffs. results/ is built from these numbers, so
// a refactor of the moment evaluation that moves any of them by one ulp
// shows up here first.
//
// Regenerate (only when the *model*, not its evaluation, changes) with:
//
//	go test ./internal/queueing -run TestAnalyticGolden -update

var updateGolden = flag.Bool("update", false, "rewrite golden analytic files")

type analyticCase struct {
	name  string
	size  dist.Distribution
	loads []float64
	// full runs every cutoff search and full report. Without it only the
	// values whose moments stay finite are pinned: for a size distribution
	// whose support starts at 0, E[1/X^2] on the first host diverges and
	// its quadrature runs to the depth guard (seconds per evaluation).
	full bool
}

func analyticCases() []analyticCase {
	var cases []analyticCase
	for _, name := range []string{"psc-c90", "psc-j90", "ctc-sp2"} {
		p, err := trace.ByName(name)
		if err != nil {
			panic(err)
		}
		cases = append(cases, analyticCase{name, p.MustSizeDist(), []float64{0.3, 0.5, 0.7, 0.9}, true})
	}
	// Uniform and Exponential have no closed-form partial moments, so they
	// exercise the quantile-quadrature fallback of dist.PartialMoment.
	cases = append(cases,
		analyticCase{"uniform", dist.NewUniform(10, 1000), []float64{0.7}, true},
		analyticCase{"exponential", dist.NewExponential(100), []float64{0.7}, false},
	)
	return cases
}

// goldenWriter renders values bit-exactly: hex float literals round-trip
// every non-NaN float64 without decimal rounding.
type goldenWriter struct{ b strings.Builder }

func (w *goldenWriter) float(key string, v float64) {
	fmt.Fprintf(&w.b, "%s %s\n", key, strconv.FormatFloat(v, 'x', -1, 64))
}

func (w *goldenWriter) floats(key string, vs []float64) {
	for i, v := range vs {
		w.float(fmt.Sprintf("%s[%d]", key, i), v)
	}
}

func (w *goldenWriter) err(key string, err error) {
	fmt.Fprintf(&w.b, "%s err %v\n", key, err)
}

func (w *goldenWriter) report(key string, r queueing.Report) {
	for _, h := range r.Hosts {
		k := fmt.Sprintf("%s.host%d", key, h.Host)
		w.float(k+".Lo", h.Lo)
		w.float(k+".Hi", h.Hi)
		w.float(k+".JobFraction", h.JobFraction)
		w.float(k+".LoadFraction", h.LoadFraction)
		w.float(k+".Load", h.Load)
		w.float(k+".MeanWait", h.MeanWait)
		w.float(k+".MeanSlowdown", h.MeanSlowdown)
		w.float(k+".VarSlowdown", h.VarSlowdown)
		w.float(k+".MeanResponse", h.MeanResponse)
		w.float(k+".VarResponse", h.VarResponse)
	}
	w.float(key+".MeanSlowdown", r.MeanSlowdown)
	w.float(key+".VarSlowdown", r.VarSlowdown)
	w.float(key+".MeanResponse", r.MeanResponse)
	w.float(key+".VarResponse", r.VarResponse)
	w.float(key+".SystemLoad", r.SystemLoad)
	w.floats(key+".LoadFractions", r.LoadFractions)
}

func (w *goldenWriter) sita(key string, lambda float64, size dist.Distribution, cuts []float64, err error) {
	if err != nil {
		w.err(key, err)
		return
	}
	w.floats(key+".cut", cuts)
	s := queueing.NewSITA(lambda, size, cuts)
	w.report(key, s.Analyze())
	fmt.Fprintf(&w.b, "%s.Feasible %v\n", key, s.Feasible())
}

func (w *goldenWriter) tags(key string, lambda float64, size dist.Distribution, cuts []float64, err error) {
	if err != nil {
		w.err(key, err)
		return
	}
	w.floats(key+".cut", cuts)
	a := tags.NewAnalysis(lambda, size, cuts)
	for _, h := range a.Hosts() {
		k := fmt.Sprintf("%s.host%d", key, h.Host)
		w.float(k+".Rate", h.Rate)
		w.float(k+".Load", h.Load)
		w.float(k+".MeanWait", h.MeanWait)
	}
	fmt.Fprintf(&w.b, "%s.Feasible %v\n", key, a.Feasible())
	w.float(key+".MeanSlowdown", a.MeanSlowdown())
	w.float(key+".MeanResponse", a.MeanResponse())
}

func (w *goldenWriter) mg1(key string, q queueing.MG1) {
	w.float(key+".Load", q.Load())
	w.float(key+".MeanWait", q.MeanWait())
	w.float(key+".WaitSecondMoment", q.WaitSecondMoment())
	w.float(key+".MeanResponse", q.MeanResponse())
	w.float(key+".ResponseSecondMoment", q.ResponseSecondMoment())
	w.float(key+".ResponseVariance", q.ResponseVariance())
	w.float(key+".MeanSlowdown", q.MeanSlowdown())
	w.float(key+".SlowdownSecondMoment", q.SlowdownSecondMoment())
	w.float(key+".SlowdownVariance", q.SlowdownVariance())
	w.float(key+".MeanQueueLength", q.MeanQueueLength())
}

// analyticGolden renders every pinned value of one size distribution.
func analyticGolden(c analyticCase) string {
	var w goldenWriter
	mean := c.size.Moment(1)
	for _, load := range c.loads {
		at := fmt.Sprintf("load=%v", load)
		lambda2 := 2 * load / mean
		w.mg1(at+" random2", queueing.RandomSplit(lambda2, c.size, 2))
		rot := queueing.RuleOfThumbCutoff(lambda2, c.size)
		if !c.full {
			w.float(at+" rule2.cut", rot)
			fmt.Fprintf(&w.b, "%s rule2.Feasible %v\n", at, queueing.NewSITA(lambda2, c.size, []float64{rot}).Feasible())
			w.tags(at+" tags-rule2", lambda2, c.size, []float64{rot}, nil)
			for _, h := range []int{3, 4} {
				lambda := float64(h) * load / mean
				cuts, err := queueing.EqualLoadCutoffs(c.size, h)
				w.floats(fmt.Sprintf("%s equal%d.cut", at, h), cuts)
				fmt.Fprintf(&w.b, "%s equal%d.Feasible %v\n", at, h, queueing.NewSITA(lambda, c.size, cuts).Feasible())
				w.tags(fmt.Sprintf("%s tags-equal%d", at, h), lambda, c.size, cuts, err)
			}
			continue
		}
		w.sita(at+" rule2", lambda2, c.size, []float64{rot}, nil)
		opt, err := queueing.OptimalCutoff(lambda2, c.size)
		w.sita(at+" opt2", lambda2, c.size, []float64{opt}, err)
		fair, err := queueing.FairCutoff(lambda2, c.size)
		w.sita(at+" fair2", lambda2, c.size, []float64{fair}, err)
		for _, h := range []int{3, 4, 6, 8} {
			lambda := float64(h) * load / mean
			cuts, err := queueing.OptimalCutoffs(lambda, c.size, h)
			w.sita(fmt.Sprintf("%s opt%d", at, h), lambda, c.size, cuts, err)
			cuts, err = queueing.FairCutoffs(lambda, c.size, h)
			w.sita(fmt.Sprintf("%s fair%d", at, h), lambda, c.size, cuts, err)
		}
		for _, h := range []int{2, 3} {
			lambda := float64(h) * load / mean
			cuts, err := tags.OptimalCutoffs(lambda, c.size, h)
			w.tags(fmt.Sprintf("%s tags%d", at, h), lambda, c.size, cuts, err)
		}
	}
	return w.b.String()
}

func TestAnalyticGolden(t *testing.T) {
	for _, c := range analyticCases() {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			got := analyticGolden(c)
			path := filepath.Join("testdata", "analytic-"+c.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to generate): %v", err)
			}
			if got == string(want) {
				return
			}
			gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if gl[i] != wl[i] {
					t.Fatalf("%s diverged at line %d:\ngot:  %s\nwant: %s", path, i+1, gl[i], wl[i])
				}
			}
			t.Fatalf("%s: got %d lines, want %d", path, len(gl), len(wl))
		})
	}
}
