#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:  bash dbtbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Build outputs, the Go build cache and scratch files stay in .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off
(cd "$root/dbtbench" && go build -o "$out/dbtbench" .)
exec "$out/dbtbench" "$@"
