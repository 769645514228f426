#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout; everything the build and the run write stays under
# .bench_build/ in that checkout:
#
#   bash ideperf/run.sh --workload explore --seed 1 --seconds 10 --trace 0
set -euo pipefail

out="$(pwd)/.bench_build/ideperf"
mkdir -p "$out/tmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOENV=off GOTOOLCHAIN=local GOFLAGS= GOPROXY=off
(cd ideperf && go build -o "$out/ideperf" .)
exec "$out/ideperf" "$@"
