#!/usr/bin/env bash
# Builds the benchmark from source in this checkout and runs it with
# the given arguments. Run from the repository root:
#
#   bash benchmark/run.sh -workload fleet-lossless -seed 1 -seconds 15 -trace 0
#
# The Go build cache, the compiler's scratch files and the binary live
# under .bench_build/, so the benchmark writes nothing outside the
# checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= GOENV=off
(cd "$root/benchmark" && go build -o "$out/benchmark" .)
exec "$out/benchmark" "$@"
