#!/usr/bin/env bash
# Builds and runs the serving benchmark from the root of a checkout:
#   bash servebench/run.sh --workload bulk --seed 1 --seconds 10 --trace 0
# The Go build cache, Go's own config and telemetry files, and every file
# a run makes stay under .bench_build.
set -euo pipefail
root=$(pwd)
cache="$root/.bench_build"
export GOCACHE="$cache/gocache" GOPATH="$cache/gopath" GOTMPDIR="$cache/tmp"
export XDG_CONFIG_HOME="$cache/config" GOTOOLCHAIN=local GOFLAGS=
mkdir -p "$GOTMPDIR"
go -C servebench build -o "$cache/servebench" .
exec "$cache/servebench" "$@"
