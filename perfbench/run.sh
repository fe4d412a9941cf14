#!/usr/bin/env bash
# Builds the benchmark driver and cmd/gpod from source, then runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload gpo-table1 --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, temp dirs and span dumps all stay in
# $CARGO_TARGET_DIR (default .bench_build) under the repository root.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"

export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp XDG_CONFIG_HOME=$out/config
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
go build -o "$out/gpod" ./cmd/gpod

exec "$out/perfbench" -gpod "$out/gpod" -work "$out" "$@"
