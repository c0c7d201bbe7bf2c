#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of the checkout it is run
# in and runs it with the given arguments, e.g.
#
#   bash bench/run.sh --workload query --seed 3 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and every
# file the benchmark writes stay under .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/bench" && go build -o "$out/opaq-bench" .)
exec "$out/opaq-bench" "$@"
