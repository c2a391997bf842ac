#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs it.
# Run from the repository root; arguments go to the benchmark, e.g.
#
#   bash e2ebench/run.sh --workload repro-hard --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build): the Go build cache, the
# binary, the service's state directory and the span dumps.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
mkdir -p "$build/gocache" "$build/gotmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOFLAGS=-mod=mod
export GOTOOLCHAIN=local
export GOPROXY=off
export GOENV=off

go build -C e2ebench -o "$build/e2ebench" .
exec "$build/e2ebench" -work "$build/e2ebench-work" "$@"
