#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from the
# checkout it is run in and hands it the arguments. Everything the Go
# toolchain writes (build cache, module cache, telemetry) is pointed
# into .bench_build/ inside the checkout, and the benchmark itself
# writes to bench/out/, so a run reads and writes nothing outside it.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")"
root="$(cd .. && pwd)"
build="$root/.bench_build"
mkdir -p "$build/home"

export HOME="$build/home"
export XDG_CACHE_HOME="$build/home/.cache" XDG_CONFIG_HOME="$build/home/.config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off

go build -o "$build/bench" .
cd "$root"
exec "$build/bench" "$@"
