#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run it from
# the repository root:
#
#   bash _perfbench/run.sh --workload local --seed 1 --seconds 40 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache and configuration, the binary, archives,
# fixtures and traces.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd _perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" --out "$build/perfbench" "$@"
