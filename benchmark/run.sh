#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from the
# sources of the checkout it sits in and runs it with the given
# arguments. Everything the build writes (the binary, Go's build cache,
# its temporary files) stays under .bench_build in that checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOENV=off
go build -o "$build/prcu-benchmark" ./benchmark
exec "$build/prcu-benchmark" "$@"
