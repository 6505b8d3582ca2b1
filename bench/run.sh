#!/usr/bin/env bash
# Builds the benchmark from source and runs it; the driver's entry point:
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the build and the run write stays inside the checkout: the Go
# build cache, the binary and TMPDIR (so the WAL directories too) live
# under .bench_build/, results and traces under bench/out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && go build -buildvcs=false -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
