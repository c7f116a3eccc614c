#!/usr/bin/env bash
# Builds the benchmark and laserd from this checkout, then runs one
# benchmark run. Run it from the checkout root:
#
#   bash perfbench/run.sh --workload eval --seed 1 --seconds 35 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout: binaries, the Go build cache, temporary files and traces.
# Build output goes to standard error; standard output carries only the
# benchmark's own lines, ending with the JSON result line.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/run.sh" ]]; then
	echo "run.sh: run from the checkout root (perfbench/run.sh not found)" >&2
	exit 2
fi
command -v go >/dev/null || { echo "run.sh: go not found on PATH" >&2; exit 2; }

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gomodcache" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPATH="$build/gopath"

go -C "$root" build -o "$build/bin/laserd" ./cmd/laserd >&2
go -C "$root/perfbench" build -o "$build/bin/perfbench" . >&2

exec "$build/bin/perfbench" -laserd "$build/bin/laserd" "$@"
