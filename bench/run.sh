#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything the build writes (compiler cache, temp files, the binary)
# stays under .bench_build/; the program's data and traces under
# bench/out/. Arguments go to the program: see bench/README.md.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
(cd bench && go build -o "$build/planetp-bench" .)
exec "$build/planetp-bench" "$@"
