#!/usr/bin/env bash
# Builds goldilocks-bench from this checkout and runs it with the given
# arguments. Run it from the repository root:
#
#   bash cmd/goldilocks-bench/bench.sh --workload fattree8-chaos-1k --seed 1 --seconds 10 --trace 0
#   bash cmd/goldilocks-bench/bench.sh run -traced
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the binary, the Go build cache and the runs' scratch files.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache"
export GOPATH="$build/go-path"
export XDG_CONFIG_HOME="$build/config" # go's own settings and telemetry
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -C cmd/goldilocks-bench -o "$build/goldilocks-bench" .
exec "$build/goldilocks-bench" "$@"
