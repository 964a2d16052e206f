#!/usr/bin/env bash
# Entry point BENCHMARK.json names: builds the runner from source into
# .bench_build/ at the checkout root (the only place a run writes,
# besides bench/out/), then hands over to it. Arguments pass through.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin"
# Keep the Go build cache inside the checkout too, and never reach for
# the network or another toolchain.
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOWORK=off GOPROXY=off
t0=$(date +%s.%N)
(cd "$here" && go build -o "$build/bin/bench" .)
BENCH_BUILD_S=$(echo "$(date +%s.%N) $t0" | awk '{printf "%.3f", $1 - $2}')
export BENCH_BUILD_S BENCH_ROOT="$root"
exec "$build/bin/bench" "$@"
