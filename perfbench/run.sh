#!/usr/bin/env bash
# The driver's entry point: builds the benchmark from source and runs it
# with the driver's arguments. Everything the build writes — the binary,
# Go's build cache, its temporary files — stays under .bench_build/ in
# the checkout, so a run reads and writes nothing outside it. Without the
# repository around it (no go.mod) the build fails and this exits
# non-zero without printing a result.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/gotmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -o "$build/perfbench" ./perfbench
exec "$build/perfbench" "$@"
