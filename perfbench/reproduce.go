package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"sita/internal/experiment"
	"sita/internal/sim"
	"sita/internal/streamcache"
)

// The reproduce workload runs every experiment.IDs() driver on
// experiment.Default() at Workers = GOMAXPROCS, as `cmd/sweep -exp all`
// does. Each pass is a fresh process, because the package-level trace and
// stream caches start cold for a real user.

// reproduceReport is one pass's report from its child process.
type reproduceReport struct {
	ReadyUnixNS  int64             `json:"ready_unix_ns"`
	WallS        float64           `json:"wall_s"`
	CPUS         float64           `json:"cpu_s"`
	MaxRSS       int64             `json:"max_rss"`
	Tables       int               `json:"tables"`
	Attempted    int64             `json:"attempted"`
	Failed       int64             `json:"failed"`
	CSVHash      string            `json:"csv_hash"`
	Stream       streamcache.Stats `json:"stream"`
	PoolAcquires uint64            `json:"pool_acquires"`
	PoolNews     uint64            `json:"pool_news"`
	Mem          memCounters       `json:"mem"`
	Spans        []Span            `json:"spans,omitempty"`
}

// childReproduce runs one pass and reports it. The checks run after the
// timed phase.
func childReproduce(seed uint64, traced, setupOnly bool) error {
	cfg := experiment.Default()
	cfg.Seed = seed
	cfg.Workers = runtime.GOMAXPROCS(0)
	drivers := experiment.Drivers()
	ids := experiment.IDs()
	var tr *Tracer
	if traced {
		tr = NewTracer()
	}
	ready := time.Now()
	rep := reproduceReport{ReadyUnixNS: ready.UnixNano()}
	if setupOnly {
		return printReport(rep)
	}
	mem0, u0 := readMem(), selfUsage()

	root := tr.Begin("bench", "reproduce.pass", -1, 0)
	outputs := make([][]experiment.Table, len(ids))
	errs := make([]error, len(ids))
	for i, id := range ids {
		sp := tr.Begin("drivers", "experiment."+id, root, 0)
		outputs[i], errs[i] = drivers[id](cfg)
		tr.End(sp)
	}
	tr.End(root)
	rep.WallS = time.Since(ready).Seconds()
	u1 := selfUsage()
	rep.CPUS = (u1.CPU - u0.CPU).Seconds()
	rep.MaxRSS = u1.MaxRSS
	rep.Mem = readMem().sub(mem0)
	rep.Stream = streamcache.Shared.Stats()
	rep.PoolAcquires, rep.PoolNews = sim.PoolStats()
	rep.Spans = tr.Spans()

	var t tally
	var seen []string
	h := sha256.New()
	for i, id := range ids {
		if errs[i] != nil {
			t.op(fmt.Errorf("%s: %w", id, errs[i]))
			continue
		}
		var probs []string
		for _, tab := range outputs[i] {
			rep.Tables++
			seen = append(seen, tab.ID)
			csv := tab.CSV()
			h.Write([]byte(csv))
			if seed == 1 {
				probs = append(probs, matchReference(tab.ID+".txt", tab.Format())...)
				probs = append(probs, matchReference(tab.ID+".csv", csv)...)
			} else {
				probs = append(probs, checkFinite(tab)...)
			}
		}
		if len(outputs[i]) == 0 {
			probs = append(probs, "no tables")
		}
		t.op(joinErrs(prefixed(id, probs)))
	}
	if seed == 1 {
		t.op(checkReferenceSet(seen))
	}
	rep.Attempted, rep.Failed = t.attempted, t.failed
	rep.CSVHash = hex.EncodeToString(h.Sum(nil))
	return printReport(rep)
}

func prefixed(id string, probs []string) []string {
	for i, p := range probs {
		probs[i] = id + ": " + p
	}
	return probs
}

// matchReference compares one output file with its checked-in copy.
func matchReference(name, got string) []string {
	want, err := os.ReadFile(filepath.Join("results", name))
	if err != nil {
		return []string{err.Error()}
	}
	if string(want) != got {
		return []string{"differs from results/" + name}
	}
	return nil
}

// checkReferenceSet verifies that the pass produced every checked-in
// table and no other.
func checkReferenceSet(ids []string) error {
	files, err := filepath.Glob(filepath.Join("results", "*.csv"))
	if err != nil {
		return err
	}
	var want []string
	for _, f := range files {
		want = append(want, strings.TrimSuffix(filepath.Base(f), ".csv"))
	}
	got := append([]string(nil), ids...)
	sort.Strings(got)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		return fmt.Errorf("tables %v, results/ holds %v", got, want)
	}
	return nil
}

// checkFinite verifies a table is non-empty and every value present is
// finite.
func checkFinite(tab experiment.Table) []string {
	var probs []string
	cells := 0
	for _, s := range tab.SeriesNames() {
		for _, x := range tab.Xs() {
			y, ok := tab.Value(s, x)
			if !ok {
				continue
			}
			cells++
			if math.IsNaN(y) || math.IsInf(y, 0) {
				probs = append(probs, fmt.Sprintf("%s[%s, %g] = %v", tab.ID, s, x, y))
			}
		}
	}
	if cells == 0 {
		probs = append(probs, tab.ID+" is empty")
	}
	return probs
}

// runReproduce runs passes until the time is up. In a traced run every
// other pass is traced, so tracing overhead is traced over untraced pass
// time within one run.
func runReproduce(o options) (outcome, error) {
	setups, err := measureSetup("reproduce", o.seed, "--setup-only")
	if err != nil {
		return outcome{}, err
	}
	var (
		t                 tally
		walls, cpus, rss  []float64
		tracedWalls, free []float64
		reps              []reproduceReport
		tracedReps        []reproduceReport
		hash              string
	)
	start := time.Now()
	const minPasses = 3
	for pass := 0; pass < minPasses || time.Since(start) < o.seconds; pass++ {
		traced := o.traced && pass%2 == 0
		args := []string{"reproduce", "--seed", fmt.Sprint(o.seed), fmt.Sprintf("--traced=%t", traced)}
		var rep reproduceReport
		if _, err := runChild(args, &rep); err != nil {
			t.op(err)
			continue
		}
		t.attempted += rep.Attempted
		t.failed += rep.Failed
		if hash == "" {
			hash = rep.CSVHash
		} else if rep.CSVHash != hash {
			t.op(fmt.Errorf("pass %d: tables differ from the first pass", pass))
		}
		reps = append(reps, rep)
		walls = append(walls, rep.WallS)
		cpus = append(cpus, rep.CPUS)
		rss = append(rss, mib(rep.MaxRSS))
		if traced {
			tracedReps = append(tracedReps, rep)
			tracedWalls = append(tracedWalls, rep.WallS)
		} else {
			free = append(free, rep.WallS)
		}
	}
	if len(reps) == 0 {
		return outcome{}, fmt.Errorf("no pass completed")
	}
	out := outcome{attempted: t.attempted, failed: t.failed}
	if !o.traced {
		fmt.Fprintf(os.Stderr, "perfbench: reproduce: %d passes\n", len(walls))
		out.metrics = map[string]float64{
			"setup_s":          Median(setups),
			"wall_s":           Median(walls),
			"cpu_s":            Median(cpus),
			"throughput_per_s": float64(reps[0].Tables) / Median(walls),
			"peak_rss_mib":     Median(rss),
		}
		return out, nil
	}

	m := zeroLayerMetrics()
	var spans []Span
	for _, r := range tracedReps {
		spans = append(spans, offsetParents(r.Spans, len(spans))...)
	}
	if err := WriteJSONL(spanFile(o), spans); err != nil {
		return outcome{}, err
	}
	n := float64(len(tracedReps))
	lt := foldSpans(spans)
	for _, id := range experiment.IDs() {
		m["experiment."+id+"_s"] = lt.total["experiment."+id].Seconds() / n
	}
	lt.layerShares(m, len(tracedReps))
	last := tracedReps[len(tracedReps)-1]
	streamMetrics(m, last.Stream, 1)
	m["sim.pool_acquires"] = float64(last.PoolAcquires)
	m["sim.pool_news"] = float64(last.PoolNews)
	m["process.alloc_mib"] = mib(last.Mem.AllocBytes)
	m["process.gc_count"] = float64(last.Mem.GCs)
	m["bench.trace_overhead_ratio"] = ratio(Median(tracedWalls), Median(free))
	m["bench.error_ratio"] = ratio(float64(t.failed), float64(t.attempted))
	out.metrics = m
	return out, nil
}

// offsetParents shifts parent indices of spans appended after base others.
func offsetParents(spans []Span, base int) []Span {
	out := append([]Span(nil), spans...)
	for i := range out {
		if out[i].Parent >= 0 {
			out[i].Parent += base
		}
	}
	return out
}

// streamMetrics adds the stream cache's counters, with generations and
// evictions per unit of work.
func streamMetrics(m map[string]float64, s streamcache.Stats, units int) {
	lookups := s.Hits + s.Misses + s.Joins + s.Bypasses
	m["streamcache.hit_ratio"] = ratio(float64(s.Hits), float64(lookups))
	m["streamcache.generations"] = float64(s.Generations) / float64(units)
	m["streamcache.evictions"] = float64(s.Evictions) / float64(units)
	m["streamcache.bytes_mib"] = mib(s.Bytes)
}

// addStreamGrowth adds the counters' growth from before to after into
// sum; Bytes becomes after's.
func addStreamGrowth(sum *streamcache.Stats, before, after streamcache.Stats) {
	sum.Hits += after.Hits - before.Hits
	sum.Misses += after.Misses - before.Misses
	sum.Joins += after.Joins - before.Joins
	sum.Bypasses += after.Bypasses - before.Bypasses
	sum.Generations += after.Generations - before.Generations
	sum.Evictions += after.Evictions - before.Evictions
	sum.Bytes = after.Bytes
}
