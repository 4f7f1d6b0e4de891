#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash perfbench/run.sh --workload colocate --seed 2020 --seconds 24 --trace 0
#
# Everything the build and the runs write stays under .bench_build in the
# checkout ($CARGO_TARGET_DIR when set): the Go build cache, temporary
# files and the span dumps of traced runs.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export GOTOOLCHAIN=local GOTELEMETRY=off GOFLAGS= GOENV=off GOWORK=off GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
