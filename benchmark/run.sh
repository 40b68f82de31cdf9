#!/usr/bin/env bash
# Builds the benchmark from source and runs it. This is BENCHMARK.json's
# command; the arguments go to the program unchanged:
#
#   bash benchmark/run.sh --workload sim_apsp --seed 7 --seconds 10 --trace 0
#   bash benchmark/run.sh -compare a.jsonl b.jsonl
#
# Everything the build writes stays in the checkout, under .bench_build/
# (the Go build cache included), so the first run in a fresh checkout
# compiles the standard library too.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local
go build -C benchmark -o "$build/apsp-benchmark" . >&2
exec "$build/apsp-benchmark" "$@"
