package tags

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"sita/internal/stats"
	"sita/internal/trace"
)

// The simulation golden pins every Result field of tags.Simulate, as hex
// float bits, on the paper's three workloads at the analytically optimal
// kill cutoffs — the runs behind results/tags-*.csv. A change to the
// simulator core that reorders simultaneous events or perturbs a float
// shows up here first.
//
// Regenerate (only when the *model*, not the simulator, changes) with:
//
//	go test ./internal/tags -run TestSimulateGolden -update

var updateGolden = flag.Bool("update", false, "rewrite the golden simulation file")

const goldenPath = "testdata/simulate.golden"

// goldenWarmup and goldenLoads are the experiment drivers' defaults.
const goldenWarmup = 0.1

var goldenLoads = []float64{0.3, 0.4, 0.5, 0.6, 0.7, 0.8}

func goldenStream(b *strings.Builder, key string, s *stats.Stream) {
	fmt.Fprintf(b, "%s.Count %d\n", key, s.Count())
	goldenFloat(b, key+".Mean", s.Mean())
	goldenFloat(b, key+".Variance", s.Variance())
	goldenFloat(b, key+".Sum", s.Sum())
	goldenFloat(b, key+".Min", s.Min())
	goldenFloat(b, key+".Max", s.Max())
}

func goldenFloat(b *strings.Builder, key string, v float64) {
	fmt.Fprintf(b, "%s %s\n", key, strconv.FormatFloat(v, 'x', -1, 64))
}

// simulateGolden renders every pinned Result, one run per profile, host
// count and load at which the cutoff search finds stable cutoffs.
func simulateGolden(t *testing.T) string {
	var b strings.Builder
	for _, name := range []string{"psc-c90", "psc-j90", "ctc-sp2"} {
		p, err := trace.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := trace.Generate(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		size := p.MustSizeDist()
		for _, h := range []int{2, 3} {
			for _, load := range goldenLoads {
				key := fmt.Sprintf("%s h=%d load=%v", name, h, load)
				lambda := float64(h) * load / size.Moment(1)
				cuts, err := OptimalCutoffs(lambda, size, h)
				if err != nil {
					fmt.Fprintf(&b, "%s err %v\n", key, err)
					continue
				}
				res := Simulate(tr.JobsAtLoad(load, h, true, 1), cuts, goldenWarmup)
				goldenStream(&b, key+" Slowdown", &res.Slowdown)
				goldenStream(&b, key+" Response", &res.Response)
				goldenFloat(&b, key+" WastedWork", res.WastedWork)
				goldenFloat(&b, key+" TotalWork", res.TotalWork)
				fmt.Fprintf(&b, "%s PerHostCompleted %v\n", key, res.PerHostCompleted)
				goldenFloat(&b, key+" Horizon", res.Horizon)
			}
		}
	}
	return b.String()
}

// goldenLineMatches compares one rendered line against its golden line:
// bit for bit, except WastedWork at h >= 3, which is compared to 1e-12
// relative. With two or more cutoffs a job pays several different cutoffs
// over its life, so the order in which those terms join the float sum
// depends on whether the simulator accumulates them as each kill happens
// or as each job completes; the multiset of terms, and so the value up to
// rounding, is the same. At h = 2 every term is the single cutoff, so the
// sum is exact in any order.
func goldenLineMatches(got, want string) bool {
	if got == want {
		return true
	}
	gk, gv, ok1 := strings.Cut(got, " WastedWork ")
	wk, wv, ok2 := strings.Cut(want, " WastedWork ")
	if !ok1 || !ok2 || gk != wk || strings.Contains(gk, " h=2 ") {
		return false
	}
	g, err1 := strconv.ParseFloat(gv, 64)
	w, err2 := strconv.ParseFloat(wv, 64)
	return err1 == nil && err2 == nil && math.Abs(g-w) <= 1e-12*math.Abs(w)
}

func TestSimulateGolden(t *testing.T) {
	got := simulateGolden(t)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to generate): %v", err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%s: got %d lines, want %d", goldenPath, len(gl), len(wl))
	}
	for i := range gl {
		if !goldenLineMatches(gl[i], wl[i]) {
			t.Fatalf("%s diverged at line %d:\ngot:  %s\nwant: %s", goldenPath, i+1, gl[i], wl[i])
		}
	}
}
