#!/usr/bin/env bash
# Builds the benchmark and runs it from the repository root.
#
#   bash bench/run.sh [-workloads a,b] [-seed N] [-seconds S] [-trace 0|1] [-out DIR]
#   bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash bench/run.sh -compare PARENT.json CHANGE.json
#
# Everything the build and the run write (binary, Go build cache, the
# default results directory, and the go command's own config and
# telemetry) goes under .bench_build/ in the checkout, and the module proxy
# is off, so a run writes nothing outside the checkout and never touches
# the network.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

cd "$root/bench"
go build -trimpath -o "$build/bench" .
cd "$root"
exec "$build/bench" "$@"
