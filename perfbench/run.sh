#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#	bash perfbench/run.sh --workload serve-contended --seed 1 --seconds 30 --trace 0
#
# The Go build cache and the binary stay under .bench_build/ in the current
# directory, so nothing outside the checkout is written.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off

if ! (cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2; then
	echo "perfbench: build failed (run from the repository root)" >&2
	exit 2
fi
exec "$out/perfbench" "$@"
