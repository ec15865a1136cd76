#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it; run from
# the root of a checkout:
#
#   bash perfbench/run.sh --workload cifar-sgd-p1 --seed 1 --seconds 25 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/ in the
# checkout. Without the trainer's module at the checkout root the build
# fails and so does this script.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
