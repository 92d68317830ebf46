#!/usr/bin/env bash
# Builds the benchmark driver inside the checkout and runs it. The go
# build cache and every binary live under .bench_build in the checkout,
# and nothing is downloaded.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -C "$here" -o "$build/bin/benchmark" .
exec "$build/bin/benchmark" -root "$root" "$@"
