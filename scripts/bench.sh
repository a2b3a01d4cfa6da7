#!/usr/bin/env bash
# scripts/bench.sh — benchmark snapshot of the simulation hot path.
#
# Runs the experiment-level benchmarks the perf PRs track (Table 1, the
# h-sweep Figure 6, the analytic Figure 9), the per-policy simulator
# throughput benchmark, the kernel micro-benchmarks in internal/sim, the
# per-run PS and TAGS benchmarks, and the analytic-layer benchmarks (partial
# moments, cutoff searches), all with -benchmem so allocs/op regressions
# are visible.
#
# Usage:
#   scripts/bench.sh [outfile]        # default /tmp/bench.txt
#
# The paired before/after numbers for each perf PR are recorded in
# BENCH_<pr>.json and summarized in EXPERIMENTS.md.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-/tmp/bench.txt}"
count="${BENCH_COUNT:-5}"

{
  echo "# go: $(go version)"
  echo "# date: $(date -u +%Y-%m-%dT%H:%M:%SZ)"
  echo "# commit: $(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
  # Experiment-level drivers: one full driver invocation per iteration
  # (-benchtime 1x bounds the walltime; -count gives the samples).
  go test -run '^$' -bench 'BenchmarkTable1$|BenchmarkFigure6$|BenchmarkFigure9$' \
    -benchmem -benchtime 1x -count "$count" .
  # Raw simulator throughput per policy (jobs/s through the event kernel).
  go test -run '^$' -bench 'BenchmarkSimulatorThroughput' -benchmem -count "$count" .
  # Indexed vs linear-scan host selection at h = 16 / 128 / 1024
  # (<policy> vs <policy>-scan is the O(log h) fast path's speedup).
  go test -run '^$' -bench 'BenchmarkManyHosts' -benchmem -benchtime 1x -count "$count" \
    ./internal/policy/
  # Kernel micro-benchmarks: event scheduling, typed events, cancel, reuse.
  go test -run '^$' -bench . -benchmem -count "$count" ./internal/sim/
  # Host-selection index micro-benchmarks (must stay 0 allocs/op).
  go test -run '^$' -bench . -benchmem -count "$count" ./internal/hostindex/
  # Stream-cache: cached vs bypassed multi-policy sweep in the same binary,
  # and the per-acquisition hit/generate costs (hit must stay 0 allocs/op).
  go test -run '^$' -bench 'BenchmarkSweepStreamCache' -benchmem -benchtime 1x \
    -count "$count" ./internal/experiment/
  go test -run '^$' -bench 'BenchmarkJobsAtLoad' -benchmem -count "$count" \
    ./internal/streamcache/
  # Direct-recurrence fast path vs the event-heap engine on the same
  # 100k-job stream (<policy>/hN direct-to-engine ns/op ratio is the
  # speedup; output bytes are identical, proven by the differential tests),
  # and the pooled replay core (must stay 0 allocs/op).
  go test -run '^$' -bench 'BenchmarkDirectVsEngine' -benchmem -benchtime 1s \
    -count "$count" .
  go test -run '^$' -bench 'BenchmarkDirectReplayCore' -benchmem \
    -count "$count" ./internal/server/
  # One Processor-Sharing run (C90, Least-Work-Left, load 0.8, 2 and 32
  # hosts) through RunPS.
  go test -run '^$' -bench 'BenchmarkRunPS' -benchmem -count "$count" \
    ./internal/server/
  # One TAGS run on the server engine (C90, 2 hosts, load 0.5); the root
  # BenchmarkTAGS also times the cutoff search, this one only the run.
  go test -run '^$' -bench 'BenchmarkSimulate$' -benchmem -count "$count" \
    ./internal/tags/
  # Analytic layer: the partial-moment primitive every moment record is
  # built from (0 allocs/op), and the cutoff searches over the mean-only
  # objectives (allocs/op is a small per-search constant, independent of
  # the number of objective evaluations).
  go test -run '^$' -bench 'BenchmarkPartialMoment' -benchmem -count "$count" \
    ./internal/dist/
  go test -run '^$' -bench 'BenchmarkOptimalCutoffs|BenchmarkFairCutoffs' \
    -benchmem -count "$count" ./internal/queueing/
} | tee "$out"
