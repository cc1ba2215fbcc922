#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload recover-cold --seed 1 --seconds 10 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/ in the
# current directory, so a run writes nothing outside the tree. The build
# uses the repository's default.pgo profile when one is present.
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= GOENV=off CGO_ENABLED=0

pgo=off
if [ -f "$root/default.pgo" ]; then
  pgo="$root/default.pgo"
fi
(cd "$root/perfbench" && go build -trimpath -pgo="$pgo" -o "$build/perfbench" .)

exec "$build/perfbench" --workdir "$build/work" "$@"
