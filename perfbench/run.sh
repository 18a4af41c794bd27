#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload campaign --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary, plan stores and span traces all stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

# Keep every file the go command writes (build cache, temporary files,
# telemetry counters) inside the checkout.
mkdir -p "$out/tmp" "$out/config"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local CGO_ENABLED=0
(cd perfbench && go build -o "$out/perfbench" .)

if [ "${1:-}" = compare ]; then
	exec "$out/perfbench" "$@"
fi
exec "$out/perfbench" --workdir "$out/perfbench-work" "$@"
