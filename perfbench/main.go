// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload — the paper reproduction, library simulations, or the
// simd service — checks every output, and prints one JSON result line:
//
//	perfbench --workload simulate --seed 7 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics of an untraced run; --trace 1
// prints the per-layer metrics of a traced run, whose spans are written to
// .bench_build/spans/. See README.md for the workloads, the layers and the
// metric definitions.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// options are one run's command-line settings.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	spanDir  string
}

// outcome is what a workload measured and how many of its operations
// failed.
type outcome struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
}

// tally counts operations and failed checks.
type tally struct {
	attempted, failed int64
	shown             int
}

// op records one attempted operation; a non-nil err marks it failed.
func (t *tally) op(err error) {
	t.attempted++
	if err != nil {
		t.fail(err)
	}
}

// fail marks one operation failed without counting a new attempt.
func (t *tally) fail(err error) {
	t.failed++
	if t.shown < 20 {
		t.shown++
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
	}
}

var workloads = map[string]func(options) (outcome, error){
	"reproduce": runReproduce,
	"simulate":  runSimulate,
	"serve":     runServe,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		if err := childMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name    = flag.String("workload", "", "workload: reproduce, simulate or serve")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 20, "how long the timed phase runs")
		trace   = flag.Int("trace", 0, "1 runs traced and prints per-layer metrics; 0 prints end-to-end metrics")
	)
	flag.Parse()
	fn, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown --workload %q (have reproduce, simulate, serve)", *name)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be >= 1, got %d", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if err := checkCheckout(); err != nil {
		return err
	}
	o := options{workload: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *trace == 1}
	if o.traced {
		o.spanDir = filepath.Join(".bench_build", "spans")
		if err := os.MkdirAll(o.spanDir, 0o755); err != nil {
			return err
		}
	}
	out, err := fn(o)
	if err != nil {
		return err
	}
	defs := endToEnd
	if o.traced {
		defs = perLayer
	}
	line, err := Emit(defs, out.metrics, out.attempted, out.failed)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

// checkCheckout verifies the benchmark runs from the root of a checkout
// holding the reference results it compares against.
func checkCheckout() error {
	if _, err := os.Stat(filepath.Join("results", "fig6.csv")); err != nil {
		return fmt.Errorf("run from the repository root (results/ not found): %w", err)
	}
	return nil
}

// childMain runs one child process: a reproduce pass or the set-up of a
// workload, reporting on its last line of standard output.
func childMain(args []string) error {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "workload seed")
	traced := fs.Bool("traced", false, "record spans")
	setupOnly := fs.Bool("setup-only", false, "stop at the first timed call")
	if len(args) == 0 {
		return fmt.Errorf("missing child mode")
	}
	mode := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	switch mode {
	case "reproduce":
		return childReproduce(*seed, *traced, *setupOnly)
	case "simulate-setup":
		_, err := setupSimulate(*seed, nil)
		if err != nil {
			return err
		}
		return printReport(readyReport{ReadyUnixNS: time.Now().UnixNano()})
	case "serve-server":
		return childServe(*setupOnly)
	}
	return fmt.Errorf("unknown child mode %q", mode)
}

// setupSamples is how many fresh processes each run times its set-up in;
// setup_s is their median.
const setupSamples = 41

// measureSetup times the workload's set-up in setupSamples fresh
// processes.
func measureSetup(mode string, seed uint64, extra ...string) ([]float64, error) {
	var out []float64
	for range setupSamples {
		args := append([]string{mode, "--seed", fmt.Sprint(seed)}, extra...)
		d, err := runChild(args, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

// spanFile names the span dump of a traced run.
func spanFile(o options) string {
	return filepath.Join(o.spanDir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
}

// layerTimes folds spans into per-layer self time, the per-name total
// duration and call count, and the total time of root spans.
type layerTimes struct {
	self  map[string]time.Duration // by layer
	total map[string]time.Duration // by span name
	calls map[string]int64         // by span name
	root  time.Duration
}

func foldSpans(spans []Span) layerTimes {
	lt := layerTimes{self: map[string]time.Duration{}, total: map[string]time.Duration{}, calls: map[string]int64{}}
	self := SelfTimes(spans)
	for i, s := range spans {
		lt.self[s.Layer] += self[i]
		lt.total[s.Name] += s.End - s.Start
		lt.calls[s.Name]++
		if s.Parent < 0 {
			lt.root += s.End - s.Start
		}
	}
	return lt
}

// layerShares adds <layer>.self_s (per unit of work) and <layer>.share
// (of root span time) for every layer.
func (lt layerTimes) layerShares(m map[string]float64, units int) {
	for _, l := range layers {
		m[l+".self_s"] = lt.self[l].Seconds() / float64(units)
		share := 0.0
		if lt.root > 0 {
			share = float64(lt.self[l]) / float64(lt.root)
		}
		m[l+".share"] = share
	}
}

// mib converts bytes to MiB.
func mib[T int64 | uint64](b T) float64 { return float64(b) / (1 << 20) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// joinErrs formats a list of problems for one failed check.
func joinErrs(errs []string) error {
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("%s", strings.Join(errs, "; "))
}
