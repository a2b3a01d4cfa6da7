package main

import (
	"fmt"
	"os"
	"time"

	"sita"
	"sita/internal/catalog"
	"sita/internal/core"
	"sita/internal/policy"
	"sita/internal/server"
	"sita/internal/sim"
	"sita/internal/streamcache"
	"sita/internal/tags"
	"sita/internal/trace"
)

// The simulate workload is one goroutine running a closed loop over cells
// in the shape of sita.Compare. The grid mixes direct-path cells
// (oblivious policies) with engine-path cells (state-reading policies)
// and PS, at 2 and 32 hosts, so a change that speeds one path at the
// other's cost shows. queueing.OptimalCutoffs at h > 2 (seconds per
// call) stays out: every design is derived on the 2-host system.
var (
	simProfiles = []string{"psc-c90", "psc-j90", "ctc-sp2"}
	simHosts    = []int{2, 32}
	simLoads    = []float64{0.5, 0.8}
)

const (
	simWarmup = 0.1
	tagsLoad  = 0.5
)

// sitaVariants maps the SITA names of catalog.PolicyNames to variants.
var sitaVariants = map[string]core.Variant{
	"sita-e":      core.SITAE,
	"sita-u-opt":  core.SITAUOpt,
	"sita-u-fair": core.SITAUFair,
	"sita-u-rule": core.SITARule,
}

// setupSimulate generates one trace per profile.
func setupSimulate(seed uint64, tr *Tracer) (map[string]*sita.Workload, error) {
	wls := map[string]*sita.Workload{}
	for _, name := range simProfiles {
		p, err := trace.ByName(name)
		if err != nil {
			return nil, err
		}
		size, err := p.SizeDist()
		if err != nil {
			return nil, err
		}
		sp := tr.Begin("stream", "trace.generate", -1, 0)
		t, err := trace.Generate(p, seed)
		tr.End(sp)
		if err != nil {
			return nil, err
		}
		wls[name] = &sita.Workload{Profile: p, Size: size, Trace: t}
	}
	return wls, nil
}

type cell struct {
	profile string
	hosts   int
	load    float64
}

func simCells() []cell {
	var cells []cell
	for _, p := range simProfiles {
		for _, h := range simHosts {
			for _, l := range simLoads {
				cells = append(cells, cell{p, h, l})
			}
		}
	}
	return cells
}

// runDigest is the part of a Result compared bit for bit across paths.
type runDigest struct {
	count                   int64
	sum, mean, vari, maxS   float64
	resp, wait, horizon     float64
	perHostJobs, perHostWrk string
}

func digest(r *server.Result) runDigest {
	return runDigest{
		count: r.Slowdown.Count(), sum: r.Slowdown.Sum(), mean: r.Slowdown.Mean(),
		vari: r.Slowdown.Variance(), maxS: r.Slowdown.Max(),
		resp: r.Response.Mean(), wait: r.Wait.Mean(), horizon: r.Horizon,
		perHostJobs: fmt.Sprint(r.PerHostJobs), perHostWrk: fmt.Sprintf("%x", r.PerHostWork),
	}
}

// sameDelays compares the delay statistics two policies produced.
func sameDelays(a, b runDigest) bool {
	a.perHostJobs, a.perHostWrk, b.perHostJobs, b.perHostWrk = "", "", "", ""
	return a == b
}

// checkCount verifies a result counts every job but the warm-up ones and
// has mean slowdown >= 1.
func checkCount(what string, count int64, meanSlowdown float64, jobs int) error {
	want := int64(jobs - int(simWarmup*float64(jobs)))
	if count != want {
		return fmt.Errorf("%s counted %d jobs, want %d", what, count, want)
	}
	if !(meanSlowdown >= 1) {
		return fmt.Errorf("%s mean slowdown %v < 1", what, meanSlowdown)
	}
	return nil
}

// deriveDesigns derives the cell's four SITA designs; a variant that
// fails counts as a failed operation and is left out.
func deriveDesigns(c cell, wl *sita.Workload, tr *Tracer, parent int, t *tally) map[core.Variant]*core.Design {
	designs := map[core.Variant]*core.Design{}
	for _, v := range core.Variants() {
		sp := tr.Begin("analytic", "core.new_design", parent, 0)
		d, err := core.NewDesign(v, c.load, wl.Size, c.hosts)
		tr.End(sp)
		t.op(err)
		if err == nil {
			designs[v] = d
		}
	}
	return designs
}

// policyConfig builds the server configuration that runs the named
// catalog policy in cell c, SITA variants from their derived designs. It
// reports false when the policy cannot be built; a build error counts as
// a failed operation, a missing design was counted when it failed.
func policyConfig(name string, c cell, wl *sita.Workload, seed uint64, designs map[core.Variant]*core.Design, t *tally) (server.Config, bool) {
	cfg := server.Config{Hosts: c.hosts, WarmupFraction: simWarmup}
	if v, ok := sitaVariants[name]; ok {
		d, ok := designs[v]
		if ok {
			cfg.Policy, cfg.SizeClass = d.Policy(), d.Classify
		}
		return cfg, ok
	}
	p, _, err := catalog.Build(name, c.load, wl, c.hosts, seed)
	if err != nil {
		t.op(err)
		return cfg, false
	}
	cfg.Policy = p
	return cfg, true
}

// runCell makes the cell's four calls and checks every output. It
// records each direct-path result's digest in direct, keyed by cell and
// policy, for the parity check after the timed phase.
func runCell(c cell, wl *sita.Workload, seed uint64, tr *Tracer, direct map[string]runDigest, t *tally) int64 {
	root := tr.Begin("bench", "simulate.cell", -1, 0)
	defer tr.End(root)
	var simulated int64

	designs := deriveDesigns(c, wl, tr, root, t)

	sp := tr.Begin("stream", "streamcache.jobs_at_load", root, 0)
	jobs := streamcache.Shared.JobsAtLoad(wl.Trace, c.load, c.hosts, true, seed)
	tr.End(sp)

	digests := map[string]runDigest{}
	for _, name := range catalog.PolicyNames() {
		cfg, ok := policyConfig(name, c, wl, seed, designs, t)
		if !ok {
			continue
		}
		path := "server.engine"
		if server.DirectEligible(cfg) {
			path = "server.direct"
		}
		sp := tr.Begin("kernel", path, root, 0)
		res := server.Run(jobs, cfg)
		tr.End(sp)
		simulated += int64(len(jobs))
		tr.Count(path+".jobs", int64(len(jobs)))
		digests[name] = digest(res)
		if path == "server.direct" {
			direct[fmt.Sprint(c, name)] = digests[name]
		}
		t.op(checkCount(fmt.Sprint(c, " ", name), res.Slowdown.Count(), res.Slowdown.Mean(), len(jobs)))
	}
	if !sameDelays(digests["central-queue"], digests["lwl"]) {
		t.fail(fmt.Errorf("%v: Central-Queue differs from Least-Work-Left", c))
	}

	sp = tr.Begin("kernel", "server.ps", root, 0)
	ps := server.RunPS(jobs, server.Config{Hosts: c.hosts, Policy: policy.NewLeastWorkLeft(), WarmupFraction: simWarmup})
	tr.End(sp)
	simulated += int64(len(jobs))
	tr.Count("server.ps.jobs", int64(len(jobs)))
	t.op(checkCount(fmt.Sprint(c, " ps"), ps.Slowdown.Count(), ps.Slowdown.Mean(), len(jobs)))

	// TAGS wastes work on killed runs, so no cutoff keeps it stable at
	// load 0.8 on every profile; it runs where it is stable.
	if c.hosts == 2 && c.load == tagsLoad {
		lambda := c.load * float64(c.hosts) / wl.Size.Moment(1)
		sp := tr.Begin("analytic", "tags.optimal_cutoffs", root, 0)
		cuts, err := tags.OptimalCutoffs(lambda, wl.Size, c.hosts)
		tr.End(sp)
		t.op(err)
		if err == nil {
			sp := tr.Begin("kernel", "tags.simulate", root, 0)
			res := tags.Simulate(jobs, cuts, simWarmup)
			tr.End(sp)
			simulated += int64(len(jobs))
			tr.Count("tags.simulate.jobs", int64(len(jobs)))
			t.op(checkCount(fmt.Sprint(c, " tags"), res.Slowdown.Count(), res.Slowdown.Mean(), len(jobs)))
		}
	}
	return simulated
}

// checkDirectParity re-runs every direct-path policy of the grid on the
// event engine and compares the Results bit for bit.
func checkDirectParity(wls map[string]*sita.Workload, seed uint64, direct map[string]runDigest, t *tally) {
	server.SetDirectEnabled(false)
	defer server.SetDirectEnabled(true)
	for _, c := range simCells() {
		wl := wls[c.profile]
		designs := deriveDesigns(c, wl, nil, -1, t)
		jobs := streamcache.Shared.JobsAtLoad(wl.Trace, c.load, c.hosts, true, seed)
		for _, name := range catalog.PolicyNames() {
			want, ok := direct[fmt.Sprint(c, name)]
			if !ok {
				continue
			}
			cfg, ok := policyConfig(name, c, wl, seed, designs, t)
			if !ok {
				continue
			}
			var err error
			if got := digest(server.Run(jobs, cfg)); got != want {
				err = fmt.Errorf("%v %s: direct path %+v, engine %+v", c, name, want, got)
			}
			t.op(err)
		}
	}
}

// runSimulate runs grid passes until the time is up. In a traced run
// every other pass is traced.
func runSimulate(o options) (outcome, error) {
	setups, err := measureSetup("simulate-setup", o.seed)
	if err != nil {
		return outcome{}, err
	}
	// Set-up spans go to their own tracer, so layer shares are of pass
	// time alone.
	var tr, setupTr *Tracer
	if o.traced {
		tr, setupTr = NewTracer(), NewTracer()
	}
	wls, err := setupSimulate(o.seed, setupTr)
	if err != nil {
		return outcome{}, err
	}
	cells := simCells()
	var (
		t                        tally
		walls, cpus, tracedWalls []float64
		free                     []float64
		passJobs                 int64
		tracedPasses             int
		pool0Acq, pool0New       uint64
		poolAcq, poolNew         uint64
		memTraced                memCounters
		stream0, streamTraced    streamcache.Stats
		direct                   = map[string]runDigest{}
	)
	start := time.Now()
	const minPasses = 2
	for pass := 0; pass < minPasses || time.Since(start) < o.seconds; pass++ {
		traced := o.traced && pass%2 == 1
		ptr := (*Tracer)(nil)
		if traced {
			ptr = tr
			pool0Acq, pool0New = sim.PoolStats()
			stream0 = streamcache.Shared.Stats()
		}
		m0 := readMem()
		u0 := selfUsage()
		ps := time.Now()
		var jobs int64
		for _, c := range cells {
			jobs += runCell(c, wls[c.profile], o.seed, ptr, direct, &t)
		}
		wall := time.Since(ps)
		u1 := selfUsage()
		walls = append(walls, wall.Seconds())
		cpus = append(cpus, (u1.CPU - u0.CPU).Seconds())
		passJobs = jobs
		if traced {
			tracedPasses++
			tracedWalls = append(tracedWalls, wall.Seconds())
			a, n := sim.PoolStats()
			poolAcq += a - pool0Acq
			poolNew += n - pool0New
			addStreamGrowth(&streamTraced, stream0, streamcache.Shared.Stats())
			d := readMem().sub(m0)
			memTraced.AllocBytes += d.AllocBytes
			memTraced.GCs += d.GCs
		} else {
			free = append(free, wall.Seconds())
		}
	}
	peak := selfUsage().MaxRSS
	checkDirectParity(wls, o.seed, direct, &t)

	out := outcome{attempted: t.attempted, failed: t.failed}
	if !o.traced {
		fmt.Fprintf(os.Stderr, "perfbench: simulate: %d passes\n", len(walls))
		out.metrics = map[string]float64{
			"setup_s":          Median(setups),
			"wall_s":           Median(walls),
			"cpu_s":            Median(cpus),
			"throughput_per_s": float64(passJobs) / Median(walls),
			"peak_rss_mib":     mib(peak),
		}
		return out, nil
	}

	spans := tr.Spans()
	setupSpans := setupTr.Spans()
	if err := WriteJSONL(spanFile(o), append(spans, offsetParents(setupSpans, len(spans))...)); err != nil {
		return outcome{}, err
	}
	m := zeroLayerMetrics()
	n := float64(tracedPasses)
	lt := foldSpans(spans)
	m["core.new_design_calls"] = float64(lt.calls["core.new_design"]) / n
	m["core.new_design_s"] = lt.total["core.new_design"].Seconds() / n
	var designMS []float64
	for _, s := range spans {
		if s.Name == "core.new_design" {
			designMS = append(designMS, float64(s.End-s.Start)/1e6)
		}
	}
	m["core.new_design_p50_ms"] = Median(designMS)
	m["tags.optimal_cutoffs_s"] = lt.total["tags.optimal_cutoffs"].Seconds() / n
	// Set-up runs once per run, outside the passes.
	setupLT := foldSpans(setupSpans)
	m["trace.generate_calls"] = float64(setupLT.calls["trace.generate"])
	m["trace.generate_s"] = setupLT.total["trace.generate"].Seconds()
	m["streamcache.jobs_at_load_s"] = lt.total["streamcache.jobs_at_load"].Seconds() / n
	streamMetrics(m, streamTraced, tracedPasses)
	counts := tr.Counts()
	for _, path := range []string{"server.direct", "server.engine", "server.ps", "tags.simulate"} {
		secs := lt.total[path].Seconds()
		m[path+".s"] = secs / n
		m[path+".jobs_per_s"] = ratio(float64(counts[path+".jobs"]), secs)
	}
	m["server.direct.calls"] = float64(lt.calls["server.direct"]) / n
	m["server.engine.calls"] = float64(lt.calls["server.engine"]) / n
	m["sim.pool_acquires"] = float64(poolAcq) / n
	m["sim.pool_news"] = float64(poolNew) / n
	m["process.alloc_mib"] = mib(memTraced.AllocBytes) / n
	m["process.gc_count"] = float64(memTraced.GCs) / n
	m["bench.trace_overhead_ratio"] = ratio(Median(tracedWalls), Median(free))
	m["bench.error_ratio"] = ratio(float64(t.failed), float64(t.attempted))
	lt.layerShares(m, tracedPasses)
	out.metrics = m
	return out, nil
}
