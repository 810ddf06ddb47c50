#!/usr/bin/env bash
# Builds the audit benchmark from this checkout's sources and runs it.
# Run from the repository root:
#   bash auditbench/run.sh --workload repro --seed 1 --seconds 10 --trace 0
#   bash auditbench/run.sh spread --workload serve-snapshot --runs 10
# Build products and the Go build cache stay under .bench_build/.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/auditbench" && go build -buildvcs=false -o "$build/auditbench" .)
exec "$build/auditbench" "$@"
