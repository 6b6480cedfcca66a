#!/usr/bin/env bash
# The driver's entry point (BENCHMARK.json "command"): build ./bench from
# the checkout's source into .bench_build/ and run it with the arguments
# given. Everything the build and the run write stays inside the checkout:
# the Go build cache and GOPATH are pointed there, and the toolchain is
# kept from fetching anything.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
