package main

import "sita/internal/experiment"

// endToEnd are the metrics of an untraced run, printed on every workload.
// README.md defines each one per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"throughput_per_s", "1/s"},
	{"peak_rss_mib", "MiB"},
}

// layers name the benchmark's span layers after the modules they cover;
// "bench" is the benchmark's own code between calls.
var layers = []string{"analytic", "stream", "kernel", "drivers", "service", "bench"}

// perLayer are the metrics of a traced run, printed on every workload. A
// span metric reads 0 on a workload whose benchmark code makes no call
// into that layer.
var perLayer = func() []metricDef {
	defs := []metricDef{
		// analytic
		{"core.new_design_calls", "count"},
		{"core.new_design_s", "s"},
		{"core.new_design_p50_ms", "ms"},
		{"tags.optimal_cutoffs_s", "s"},
		// stream
		{"trace.generate_calls", "count"},
		{"trace.generate_s", "s"},
		{"streamcache.jobs_at_load_s", "s"},
		{"streamcache.hit_ratio", "ratio"},
		{"streamcache.generations", "count"},
		{"streamcache.evictions", "count"},
		{"streamcache.bytes_mib", "MiB"},
		// kernel
		{"server.direct.calls", "count"},
		{"server.direct.s", "s"},
		{"server.direct.jobs_per_s", "jobs/s"},
		{"server.engine.calls", "count"},
		{"server.engine.s", "s"},
		{"server.engine.jobs_per_s", "jobs/s"},
		{"server.ps.s", "s"},
		{"server.ps.jobs_per_s", "jobs/s"},
		{"tags.simulate.s", "s"},
		{"tags.simulate.jobs_per_s", "jobs/s"},
		{"sim.pool_acquires", "count"},
		{"sim.pool_news", "count"},
		// service
		{"serve.latency_p50_ms", "ms"},
		{"serve.latency_p99_ms", "ms"},
		{"serve.latency_samples", "count"},
		{"serve.capacity_rps", "req/s"},
		{"service.sim_hit_p50_ms", "ms"},
		{"service.sim_hit_p99_ms", "ms"},
		{"service.sim_miss_p50_ms", "ms"},
		{"service.sim_miss_p99_ms", "ms"},
		{"service.advise_miss_p50_ms", "ms"},
		{"service.cache_hit_ratio", "ratio"},
		{"service.joins", "count"},
		{"service.rejected", "count"},
		{"service.deadlines", "count"},
		{"service.simulations", "count"},
		{"service.slo_miss_ratio", "ratio"},
		// benchmark health
		{"loadgen.lag_p99_ms", "ms"},
		{"loadgen.sent", "count"},
		{"bench.trace_overhead_ratio", "ratio"},
		{"bench.error_ratio", "ratio"},
		{"process.alloc_mib", "MiB"},
		{"process.gc_count", "count"},
	}
	// drivers
	for _, id := range experiment.IDs() {
		defs = append(defs, metricDef{"experiment." + id + "_s", "s"})
	}
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".self_s", "s"}, metricDef{l + ".share", "ratio"})
	}
	return defs
}()

// zeroLayerMetrics returns every per-layer metric at 0, for a workload to
// overwrite the ones it measures.
func zeroLayerMetrics() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	return m
}
