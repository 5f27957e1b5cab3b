#!/usr/bin/env bash
# Build the benchmark from source into the checkout's own build directory
# and run it. Everything the build writes (Go build cache, go config,
# the binary) stays under .bench_build/ in the current
# directory, which must be the repository root:
#
#   bash bench/run.sh --workload idle_active --seed 1 --seconds 20 --trace 0
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off GOTOOLCHAIN=local GOWORK=off

# Telemetry off, through its mode file (GOTELEMETRY cannot be set from the
# environment): with a fresh config directory the go command otherwise
# detaches a telemetry child into its own session, and that child outlives
# this script.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
