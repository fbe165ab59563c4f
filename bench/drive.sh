#!/usr/bin/env bash
# The contract's entry point (BENCHMARK.json "command"): build lbp-load
# from source into .bench_build/ at the checkout root, then run it with
# the driver's arguments. Everything the Go tool writes (build cache,
# temporary files, telemetry) is kept inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$root/bench" && go build -o "$build/lbp-load" ./lbp-load)
cd "$root"
exec "$build/lbp-load" "$@"
