#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# arguments given. Everything the build writes — Go's build cache and the
# binary — stays under .bench_build in the checkout. Run from the root.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOTOOLCHAIN=local
go build -o "$build/ftsg-benchmark" ./benchmark
exec "$build/ftsg-benchmark" "$@"
