#!/usr/bin/env bash
# Builds the benchmark harness and geoserve from this checkout's sources,
# then runs one workload:
#
#	bash perfbench/run.sh --workload serve-uniform --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout root: the Go build cache, the binaries and the work files.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/bin" "$out/work"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOTOOLCHAIN=local GOWORK=off
cd "$root/perfbench"
go build -o "$out/bin/perfbench" . >&2
go build -o "$out/bin/geoserve" geoloc/cmd/geoserve >&2
exec "$out/bin/perfbench" -geoserve "$out/bin/geoserve" -work "$out/work" -digests "$root/perfbench/digests.json" "$@"
