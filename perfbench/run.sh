#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout; arguments pass through, e.g.
#
#   bash perfbench/run.sh --workload simulate --seed 7 --seconds 20 --trace 0
#
# The build cache, binary and span dumps live under .bench_build/ in the
# checkout, so a run reads and writes nothing outside it.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0
go build -C "$root/perfbench" -o "$build/perfbench" .
exec "$build/perfbench" "$@"
