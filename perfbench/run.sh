#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given flags, e.g.
#
#   bash perfbench/run.sh --workload serve-run --seed 3 --seconds 10 --trace 0
#
# It runs from the checkout root, and the build cache, the binary and
# every file a run writes stay under .bench_build/ there.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build/perfbench"
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
