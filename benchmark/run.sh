#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the checkout,
# passing every argument through:
#
#   bash benchmark/run.sh --workload mst-n64 --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and every temporary file stay under
# .bench_build/ in the checkout. The build fails, and the script exits
# non-zero, when the repository's module is not next to benchmark/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off GOFLAGS=
(cd "$root/benchmark" && go build -o "$out/ncc-benchmark" .)
cd "$root"
exec "$out/ncc-benchmark" "$@"
