#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything it writes stays
# inside the checkout: the binary and Go's build cache under .bench_build/,
# trace files, result files and scratch space under benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPROXY=off GOTOOLCHAIN=local XDG_CONFIG_HOME="$build/config"
cd "$here"
go build -o "$build/benchmark" .
exec "$build/benchmark" "$@"
