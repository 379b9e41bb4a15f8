#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it from
# the repository root, passing every argument through:
#
#   bash perfbench/run.sh --workload hot --seed 1 --seconds 30 --trace 0
#
# The Go build cache, temp files and binary live under .bench_build, so
# nothing is read from or written to outside the checkout but the Go
# toolchain itself. Nothing is downloaded: the module needs only the
# standard library and the repository's own packages.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomodcache"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomodcache"
export GOPROXY=off GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off GOENV=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
