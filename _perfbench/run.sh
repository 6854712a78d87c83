#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#   bash _perfbench/run.sh --workload sim-splash --seed 1 --seconds 30 --trace 0
# Build outputs, the Go build cache and traced-run span dumps stay under
# .bench_build/ in the repository root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0
(cd "$root/_perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -root "$root" -trace-out "$out/traces" "$@"
