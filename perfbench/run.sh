#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload of it. Run from
# the root of the repository:
#
#   bash perfbench/run.sh --workload sim-agree-n64 --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the traced runs' spans and profiles
# go to .bench_build/ under the root; nothing is written elsewhere.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off GOPROXY=off GOTOOLCHAIN=local
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
go -C "$root/perfbench" build -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
