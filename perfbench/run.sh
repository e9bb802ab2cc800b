#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run from the repository root, for example:
#
#   bash perfbench/run.sh --workload query-pipelined --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build), including the Go build cache.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out/gotmp"
out=$(cd "$out" && pwd)
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$out/perfbench-bin" .)
exec "$out/perfbench-bin" "$@"
