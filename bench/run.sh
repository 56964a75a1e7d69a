#!/usr/bin/env bash
# Builds the benchmark harness from the checkout's sources and runs it
# from the repository root; every argument is passed through, e.g.
#
#   bash bench/run.sh --workload paper --seed 2006 --seconds 10 --trace 0
#
# The Go build cache, temporary files, the harness binary and everything
# the workloads write stay under .bench_build/ in the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f bench/go.mod ] || [ ! -d cmd/mica-serve ] || [ ! -d internal ]; then
	echo "bench: run from the root of a mica checkout (go.mod, internal/, cmd/mica-serve and bench/ must exist)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOFLAGS=

go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
