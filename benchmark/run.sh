#!/usr/bin/env bash
# Builds the benchmark from source and runs it; the command of
# BENCHMARK.json. Everything the Go toolchain writes (build cache, temp
# files, telemetry) is kept under .bench_build in the checkout, so a run
# reads and writes nothing outside it. Arguments go to the benchmark
# unchanged: `bash benchmark/run.sh --workload replay-warm --seed 1
# --seconds 10 --trace 0`. Same as `go run ./benchmark` otherwise.
set -euo pipefail
cd "$(dirname "$0")/.."
# Without the program there is nothing to measure: fail before the
# toolchain is started at all.
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "benchmark: no go.mod and internal/ beside benchmark/: the program to measure is not in this checkout" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
# With a fresh config directory the go command starts a telemetry sidecar
# (`go ** telemetry **`) in a session of its own, which can outlive a short
# run. Mode "off" keeps the toolchain from starting any process but the
# build's own, which it waits for.
echo off > "$build/config/go/telemetry/mode"
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
