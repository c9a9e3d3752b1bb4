#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from,
# then runs it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload trace-interp --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in the
# current directory (Go build cache included), so the first run builds
# the toolchain's standard library once and later runs reuse it.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
# The go command keeps its config and telemetry under the user config
# directory; keep those inside the build directory too.
export XDG_CONFIG_HOME="$out/config"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=

go -C "$here" build -o "$out/perfbench" .
exec "$out/perfbench" --dir "$out/perfbench-data" "$@"
