#!/usr/bin/env bash
# Builds the benchmark once per checkout and runs it. Everything the
# build writes — Go's build cache, its temporary files and its telemetry
# counters — stays under .bench_build in the checkout; later runs find
# the binary up to date and skip the link.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOFLAGS=-buildvcs=false \
	go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
