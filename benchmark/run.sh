#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it. Build
# cache, binary and scratch files stay under .bench_build/ so nothing is
# read or written outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false
go build -o "$build/snapea-benchmark" ./benchmark
exec "$build/snapea-benchmark" "$@"
