#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload kv-read --seed 1 --seconds 20 --trace 0
#
# Every build product (binary, Go build cache, GOPATH, tool config) stays
# under the build directory ($CARGO_TARGET_DIR, default .bench_build) of
# the checkout.
set -euo pipefail
root="$PWD"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
  GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
