package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"sita/internal/catalog"
	"sita/internal/service"
	"sita/internal/streamcache"
)

// The serve workload drives a simd server — service.New behind a loopback
// httptest server, in a child process — over at most GOMAXPROCS
// connections. Requests come in blocks of 20 — 12 repeats from a small
// hot set (cache hits: decode, response cache and HTTP path only), 6 cold
// /v1/simulate keys (analytic, stream and kernel work; their streams
// overflow the 256 MiB stream cache, so it evicts) and 2 cold /v1/advise
// keys (analytic only). Every run starts with an untimed warm-up; a
// traced run then adds an open-loop phase of Poisson arrivals at
// serveRate; both end with timed closed-loop batches.
const (
	// serveRate is the open-loop rate: about half the closed-loop
	// capacity with GOMAXPROCS clients at the seed commit
	// (serve.capacity_rps: 369, 396 and 431 req/s in three traced runs on
	// the 2-vCPU reference machine).
	serveRate     = 200.0
	serveOpenFrac = 0.5 // share of --seconds a traced run spends in the open loop
	// serveBatch is the requests per closed-loop batch: three blocks, so
	// every batch holds one round of 18 cold simulations.
	serveBatch = 60
	// serveWarmup is the warm-up's batches, run with GOMAXPROCS clients:
	// 270 cold simulations, where about 200 streams fill the stream cache
	// at the seed commit.
	serveWarmup  = 15
	serveHotKeys = 8
	// serveSLO is the open-loop latency limit: about twice the slowest
	// cold simulation at the seed commit.
	serveSLO = 50 * time.Millisecond
)

// Load grids of the cold keys. Each policy × hosts pair draws its loads
// without replacement, so a run that asks for more keys than a grid holds
// fails instead of repeating a key.
const (
	simLoadLo, simLoadStep, simLoadN          = 0.3, 0.0001, 6000   // [0.3, 0.9)
	adviseLoadLo, adviseLoadStep, adviseLoadN = 0.2, 0.00001, 70000 // [0.2, 0.9)
)

type reqKind int

const (
	kindHot reqKind = iota
	kindCold
	kindAdvise
)

// request is one generated HTTP request; key identifies the response the
// server must return byte-identically every time.
type request struct {
	kind   reqKind
	method string
	path   string
	body   string
	key    string
}

// loadGrid draws the loads lo + step*i, i < n, in a seeded order without
// replacement.
type loadGrid struct {
	lo, step float64
	perm     []int32
	used     int
}

func newLoadGrid(lo, step float64, n int) *loadGrid {
	g := &loadGrid{lo: lo, step: step, perm: make([]int32, n)}
	for i := range g.perm {
		g.perm[i] = int32(i)
	}
	return g
}

// draw returns an unused load, or an error once every load is used.
func (g *loadGrid) draw(rng *rand.Rand) (float64, error) {
	if g.used == len(g.perm) {
		return 0, fmt.Errorf("load grid from %g exhausted: all %d loads used", g.lo, len(g.perm))
	}
	j := g.used + rng.IntN(len(g.perm)-g.used)
	g.perm[g.used], g.perm[j] = g.perm[j], g.perm[g.used]
	g.used++
	return g.lo + g.step*float64(g.perm[g.used-1]), nil
}

// requestGen draws requests from the seed without repeating a cold key.
type requestGen struct {
	rng    *rand.Rand
	hot    []request
	perm   []reqKind
	combos []simCombo
	loads  map[simCombo]*loadGrid
	advise *loadGrid
	nCold  int
}

// simCombo is a policy and host count a cold simulation asks for.
type simCombo struct {
	policy string
	hosts  int
}

func newRequestGen(seed uint64) (*requestGen, error) {
	g := &requestGen{
		rng:    rand.New(rand.NewPCG(seed, 0x7365727665)),
		loads:  map[simCombo]*loadGrid{},
		advise: newLoadGrid(adviseLoadLo, adviseLoadStep, adviseLoadN),
	}
	for _, p := range catalog.PolicyNames() {
		for _, h := range []int{2, 8} {
			c := simCombo{p, h}
			g.combos = append(g.combos, c)
			g.loads[c] = newLoadGrid(simLoadLo, simLoadStep, simLoadN)
		}
	}
	for range serveHotKeys {
		r, err := g.simRequest(g.combos[g.rng.IntN(len(g.combos))], false, false)
		if err != nil {
			return nil, err
		}
		r.kind = kindHot
		g.hot = append(g.hot, r)
	}
	return g, nil
}

// simRequest builds a /v1/simulate request at an unused load of c's grid.
func (g *requestGen) simRequest(c simCombo, ps, bursty bool) (request, error) {
	load, err := g.loads[c].draw(g.rng)
	if err != nil {
		return request{}, fmt.Errorf("%s at %d hosts: %w", c.policy, c.hosts, err)
	}
	body := fmt.Sprintf(`{"policy":%q,"hosts":%d,"load":%s,"ps":%t,"bursty":%t}`,
		c.policy, c.hosts, strconv.FormatFloat(load, 'f', 4, 64), ps, bursty)
	return request{kind: kindCold, method: http.MethodPost, path: "/v1/simulate", body: body, key: body}, nil
}

// coldSim returns the next cold /v1/simulate request. Policy and host
// count run through all 18 pairs in a seeded order, so every 18 cold
// requests ask for the same mix of simulation costs and only the loads
// differ; in each round the first has Processor-Sharing hosts and the
// tenth bursty arrivals.
func (g *requestGen) coldSim() (request, error) {
	n := g.nCold % len(g.combos)
	g.nCold++
	if n == 0 {
		g.rng.Shuffle(len(g.combos), func(i, j int) { g.combos[i], g.combos[j] = g.combos[j], g.combos[i] })
	}
	c := g.combos[n]
	ps, bursty := n == 0, n == len(g.combos)/2
	if ps && c.policy == "central-queue" {
		c.policy = "lwl" // a pull policy has no meaning on PS hosts
	}
	return g.simRequest(c, ps, bursty)
}

// coldAdvise returns a /v1/advise request at an unused load.
func (g *requestGen) coldAdvise() (request, error) {
	load, err := g.advise.draw(g.rng)
	if err != nil {
		return request{}, fmt.Errorf("advise: %w", err)
	}
	path := fmt.Sprintf("/v1/advise?load=%s&hosts=2", strconv.FormatFloat(load, 'f', 5, 64))
	return request{kind: kindAdvise, method: http.MethodGet, path: path, key: path}, nil
}

// next returns the next request of the 12/6/2 block mix.
func (g *requestGen) next() (request, error) {
	if len(g.perm) == 0 {
		for range 12 {
			g.perm = append(g.perm, kindHot)
		}
		for range 6 {
			g.perm = append(g.perm, kindCold)
		}
		g.perm = append(g.perm, kindAdvise, kindAdvise)
		g.rng.Shuffle(len(g.perm), func(i, j int) { g.perm[i], g.perm[j] = g.perm[j], g.perm[i] })
	}
	k := g.perm[0]
	g.perm = g.perm[1:]
	switch k {
	case kindHot:
		return g.hot[g.rng.IntN(len(g.hot))], nil
	case kindCold:
		return g.coldSim()
	}
	return g.coldAdvise()
}

func (g *requestGen) take(n int) ([]request, error) {
	out := make([]request, n)
	for i := range out {
		r, err := g.next()
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// serverProcess is the simd server in a child process of its own, so the
// load generator's timers are not starved by simulations on the same Go
// scheduler, and the server's CPU and memory are measured apart from the
// client's.
type serverProcess struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	url    string
	client *http.Client
	conns  int
}

// serverReady is the serve-server child's first line of output.
type serverReady struct {
	ReadyUnixNS int64  `json:"ready_unix_ns"`
	URL         string `json:"url"`
}

// serverUsage is the server process's /bench/usage reply.
type serverUsage struct {
	CPU    time.Duration `json:"cpu_ns"`
	MaxRSS int64         `json:"max_rss"`
	Mem    memCounters   `json:"mem"`
}

// listenServe starts service.New behind a loopback httptest server, with
// /bench/usage reporting the process's resource use.
func listenServe() (*service.Server, *httptest.Server) {
	srv := service.New(service.Config{})
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.HandleFunc("GET /bench/usage", func(w http.ResponseWriter, _ *http.Request) {
		u := selfUsage()
		json.NewEncoder(w).Encode(serverUsage{CPU: u.CPU, MaxRSS: u.MaxRSS, Mem: readMem()})
	})
	return srv, httptest.NewServer(mux)
}

// childServe runs the server child: it serves until its standard input
// closes, then drains. With setupOnly it drains as soon as it is ready.
func childServe(setupOnly bool) error {
	srv, ts := listenServe()
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if err := printReport(serverReady{ReadyUnixNS: time.Now().UnixNano(), URL: ts.URL}); err != nil {
		return err
	}
	if !setupOnly {
		io.Copy(io.Discard, os.Stdin)
	}
	return nil
}

// startServer starts the server child and waits until it is ready.
func startServer() (*serverProcess, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "child", "serve-server")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	conns := runtime.GOMAXPROCS(0)
	p := &serverProcess{cmd: cmd, stdin: stdin, conns: conns,
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}}
	line, err := bufio.NewReader(stdout).ReadBytes('\n')
	var ready serverReady
	if err == nil {
		err = json.Unmarshal(line, &ready)
	}
	if err != nil {
		p.stop()
		return nil, fmt.Errorf("server child: %w", err)
	}
	p.url = ready.URL
	return p, nil
}

// stop closes the server child's input and waits for it to drain and exit.
func (p *serverProcess) stop() error {
	p.client.CloseIdleConnections()
	p.stdin.Close()
	return p.cmd.Wait()
}

func (p *serverProcess) get(path string) ([]byte, string, error) {
	return p.do(request{method: http.MethodGet, path: path})
}

func (p *serverProcess) usage() (serverUsage, error) {
	var u serverUsage
	b, _, err := p.get("/bench/usage")
	if err == nil {
		err = json.Unmarshal(b, &u)
	}
	return u, err
}

// do sends one request and returns the body of a 200 reply with its
// X-Cache status.
func (p *serverProcess) do(r request) ([]byte, string, error) {
	var body io.Reader
	if r.body != "" {
		body = strings.NewReader(r.body)
	}
	req, err := http.NewRequest(r.method, p.url+r.path, body)
	if err != nil {
		return nil, "", err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("%s %s: %d %s", r.method, r.path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, resp.Header.Get("X-Cache"), nil
}

// bodyCheck holds the first body seen per key; every later 200 for the
// key, whether miss, hit or join, must match it byte for byte.
type bodyCheck struct {
	mu    sync.Mutex
	first map[string][]byte
}

func (c *bodyCheck) check(r request, b []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	prev, ok := c.first[r.key]
	if !ok {
		c.first[r.key] = b
		return nil
	}
	if !bytes.Equal(prev, b) {
		return fmt.Errorf("%s: body differs from the first reply for the key", r.key)
	}
	return nil
}

// checkContent decodes every distinct body once and checks it makes
// sense: simulations ran jobs at mean slowdown >= 1, advice recommends a
// variant.
func (c *bodyCheck) checkContent(t *tally) {
	for key, b := range c.first {
		var err error
		if strings.HasPrefix(key, "/v1/advise") {
			var a service.AdviseResponse
			if e := json.Unmarshal(b, &a); e != nil || a.Recommended == "" || len(a.Variants) == 0 {
				err = fmt.Errorf("%s: bad advice %.200s", key, b)
			}
		} else {
			var s service.SimResponse
			if e := json.Unmarshal(b, &s); e != nil || s.Jobs <= 0 || !(s.MeanSlowdown >= 1) {
				err = fmt.Errorf("%s: bad simulation %.200s", key, b)
			}
		}
		t.op(err)
	}
}

// served is one answered request as the client saw it.
type served struct {
	kind  reqKind
	cache string
	err   error
}

// runServe runs the warm-up, in a traced run the open loop, then
// closed-loop batches until --seconds is up. In a traced run every other
// batch is traced.
func runServe(o options) (outcome, error) {
	setups, err := measureSetup("serve-server", o.seed, "--setup-only")
	if err != nil {
		return outcome{}, err
	}
	env, err := startServer()
	if err != nil {
		return outcome{}, err
	}
	defer env.stop()
	var tr *Tracer
	if o.traced {
		tr = NewTracer()
	}
	gen, err := newRequestGen(o.seed)
	if err != nil {
		return outcome{}, err
	}
	bodies := &bodyCheck{first: map[string][]byte{}}
	var t tally
	var mu sync.Mutex
	sent := 0
	send := func(tr *Tracer, r request, reqID int64, parent int) served {
		name := "service.simulate"
		if r.kind == kindAdvise {
			name = "service.advise"
		}
		sp := tr.Begin("service", name, parent, reqID)
		b, cache, err := env.do(r)
		tr.End(sp)
		if err == nil {
			err = bodies.check(r, b)
		}
		mu.Lock()
		t.op(err)
		sent++
		mu.Unlock()
		return served{kind: r.kind, cache: cache, err: err}
	}
	runStart := time.Now()

	// Warm-up, untimed: the hot keys enter the response cache and the
	// cold streams fill the stream cache, so every timed request meets
	// the caches in their steady state.
	for range serveWarmup {
		batch, err := gen.take(serveBatch)
		if err != nil {
			return outcome{}, err
		}
		ClosedLoop(len(batch), env.conns, func(i int) { send(nil, batch[i], 0, -1) })
	}

	// Open loop, traced run only: its latencies are per-layer metrics.
	// The request count is a whole number of batches, so every closed-loop
	// batch after it has the same mix.
	var (
		samples []Sample
		results []served
	)
	if o.traced {
		openFor := time.Duration(float64(o.seconds) * serveOpenFrac)
		n := int(serveRate*openFor.Seconds()) / serveBatch * serveBatch
		due := PoissonSchedule(n, serveRate, o.seed)
		reqs, err := gen.take(len(due))
		if err != nil {
			return outcome{}, err
		}
		results = make([]served, len(due))
		clk := newWallClock()
		samples = OpenLoop(due, env.conns, clk, func(i int) error {
			// The request's root span runs from when it was due; its
			// loadgen.wait child covers the time it queued for a
			// connection.
			root := tr.Begin("bench", "serve.request", -1, int64(i+1))
			tr.Backdate(root, clk.start.Add(due[i]))
			w := tr.Begin("bench", "loadgen.wait", root, int64(i+1))
			tr.Backdate(w, clk.start.Add(due[i]))
			tr.End(w)
			results[i] = send(tr, reqs[i], int64(i+1), root)
			tr.End(root)
			return results[i].err
		})
	}

	// Closed-loop batches.
	var walls, cpus, tracedWalls, free []float64
	// The untraced run drives the closed loop from one client: on a 2-vCPU
	// machine, nproc clients share the CPUs with the server and their
	// throughput spread 15-28% from run to run, too wide for a bound. The
	// traced run measures nproc-client capacity as a per-layer figure.
	clients := 1
	if o.traced {
		clients = env.conns
	}
	const minBatches = 3
	for b := 0; b < minBatches || time.Since(runStart) < o.seconds; b++ {
		btr := (*Tracer)(nil)
		if b%2 == 1 {
			btr = tr
		}
		batch, err := gen.take(serveBatch)
		if err != nil {
			return outcome{}, err
		}
		before, err := env.usage()
		if err != nil {
			return outcome{}, err
		}
		start := time.Now()
		ClosedLoop(len(batch), clients, func(i int) {
			send(btr, batch[i], int64(len(samples)+b*serveBatch+i+1), -1)
		})
		wall := time.Since(start)
		after, err := env.usage()
		if err != nil {
			return outcome{}, err
		}
		walls = append(walls, wall.Seconds())
		cpus = append(cpus, (after.CPU - before.CPU).Seconds())
		if btr != nil {
			tracedWalls = append(tracedWalls, wall.Seconds())
		} else {
			free = append(free, wall.Seconds())
		}
	}
	end, err := env.usage()
	if err != nil {
		return outcome{}, err
	}
	bodies.checkContent(&t)

	out := outcome{attempted: t.attempted, failed: t.failed}
	if !o.traced {
		out.metrics = map[string]float64{
			"setup_s":          Median(setups),
			"wall_s":           Median(walls),
			"cpu_s":            Median(cpus),
			"throughput_per_s": serveBatch / Median(walls),
			"peak_rss_mib":     mib(end.MaxRSS),
		}
		return out, nil
	}

	var lat, lag []float64
	byClass := map[string][]float64{}
	slo := 0
	for i, s := range samples {
		ms := float64(s.Latency()) / 1e6
		lat = append(lat, ms)
		lag = append(lag, float64(s.Lag())/1e6)
		if s.Err != nil || s.Latency() > serveSLO {
			slo++
		}
		if r := results[i]; r.err == nil {
			endpoint := "sim_"
			if r.kind == kindAdvise {
				endpoint = "advise_"
			}
			byClass[endpoint+r.cache] = append(byClass[endpoint+r.cache], ms)
		}
	}
	tail, lagTail := TailOf(lat), TailOf(lag)
	fmt.Fprintf(os.Stderr, "perfbench: serve: open loop %d requests at %g/s: latency p50 %.3g ms, tail %v; generator lag %v\n",
		len(samples), serveRate, Median(lat), tail, lagTail)

	spans := tr.Spans()
	if err := WriteJSONL(spanFile(o), spans); err != nil {
		return outcome{}, err
	}
	m := zeroLayerMetrics()
	m["serve.latency_p50_ms"] = Median(lat)
	m["serve.latency_p99_ms"] = tail.Value
	m["serve.latency_samples"] = float64(tail.N)
	m["service.sim_hit_p50_ms"] = Median(byClass["sim_hit"])
	m["service.sim_hit_p99_ms"] = TailOf(byClass["sim_hit"]).Value
	m["service.sim_miss_p50_ms"] = Median(byClass["sim_miss"])
	m["service.sim_miss_p99_ms"] = TailOf(byClass["sim_miss"]).Value
	m["service.advise_miss_p50_ms"] = Median(byClass["advise_miss"])
	m["service.slo_miss_ratio"] = ratio(float64(slo), float64(len(samples)))
	counters, err := scrapeMetrics(env)
	if err != nil {
		return outcome{}, err
	}
	lookups := counters["simd_cache_hits_total"] + counters["simd_cache_misses_total"] + counters["simd_cache_joins_total"]
	m["service.cache_hit_ratio"] = ratio(counters["simd_cache_hits_total"], lookups)
	m["service.joins"] = counters["simd_cache_joins_total"]
	m["service.rejected"] = counters["simd_rejected_total"]
	m["service.deadlines"] = counters["simd_deadline_total"]
	m["service.simulations"] = counters["simd_simulations_total"]
	streamMetrics(m, streamcache.Stats{
		Hits:        uint64(counters["simd_streamcache_hits_total"]),
		Misses:      uint64(counters["simd_streamcache_misses_total"]),
		Joins:       uint64(counters["simd_streamcache_joins_total"]),
		Evictions:   uint64(counters["simd_streamcache_evictions_total"]),
		Generations: uint64(counters["simd_streamcache_generations_total"]),
		Bytes:       int64(counters["simd_streamcache_bytes"]),
	}, 1)
	m["sim.pool_acquires"] = counters["simd_engine_acquires_total"]
	m["sim.pool_news"] = counters["simd_engine_allocs_total"]
	m["process.alloc_mib"] = mib(end.Mem.AllocBytes)
	m["process.gc_count"] = float64(end.Mem.GCs)
	m["loadgen.lag_p99_ms"] = lagTail.Value
	m["loadgen.sent"] = float64(sent)
	m["serve.capacity_rps"] = serveBatch / Median(free)
	m["bench.trace_overhead_ratio"] = ratio(Median(tracedWalls), Median(free))
	m["bench.error_ratio"] = ratio(float64(t.failed), float64(t.attempted))
	foldSpans(spans).layerShares(m, 1)
	out.metrics = m
	return out, nil
}

// scrapeMetrics reads the server's unlabelled Prometheus counters.
func scrapeMetrics(env *serverProcess) (map[string]float64, error) {
	b, _, err := env.get("/metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") || strings.Contains(f[0], "{") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}
