#!/usr/bin/env bash
# Builds the /classify benchmark from this checkout's sources and runs it
# with the given arguments. Run it from the repository root:
#
#   bash cbbench/run.sh --workload easy-serial --seed 1 --seconds 40 --trace 0
#
# The build cache, temporary build files, the binary, run records and
# spans all stay under .bench_build/ in the checkout. Without the
# repository's sources next to cbbench/ the build fails and the script
# exits non-zero.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp"
export GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly
go -C "$root/cbbench" build -o "$build/cbbench-bin" .
exec "$build/cbbench-bin" --out "$build/cbbench" "$@"
