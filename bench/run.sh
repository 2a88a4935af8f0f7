#!/usr/bin/env bash
# Builds the benchmark program from the repository sources and runs it with the
# given flags, e.g.
#
#   bash bench/run.sh --workload check-litmus --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every file the build and the run write
# (Go build cache, temporary directories, traces) stays under .bench_build.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" # the go command's telemetry counters
export GOWORK=off GOTOOLCHAIN=local GOENV=off GOFLAGS=
(cd bench && go build -o "$out/wobench" .)
exec "$out/wobench" "$@"
