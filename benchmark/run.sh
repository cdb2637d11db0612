#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it; BENCHMARK.json
# names this script as the command. Everything the build and the run
# write — Go's caches, the binary, scratch files, span dumps — goes under
# .bench_build in the checkout, which .gitignore names.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/gotmp"
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off
go -C "$root/benchmark" build -o "$build/spongebench" .
cd "$root"
exec "$build/spongebench" "$@"
