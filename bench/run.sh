#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash bench/run.sh --workload paper-sim --seed 1 --seconds 10 --trace 0
#
# Run it from the root of a checkout. The build cache and the binary live
# in .bench_build/ under that root, so the benchmark reads and writes
# nothing outside the checkout. The first run builds the standard library
# into that cache; later runs reuse it. The module has no dependencies
# outside the checkout, so nothing is ever downloaded.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

out="$root/.bench_build"
mkdir -p "$out/gocache"
export GOCACHE="$out/gocache"
export GOTOOLCHAIN=local
export GOPROXY=off

go -C bench build -o "$out/paybench" .
exec "$out/paybench" "$@"
