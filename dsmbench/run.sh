#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the root of the repository:
#   bash dsmbench/run.sh --workload strided --seed 1 --seconds 10 --trace 0
# Everything the build writes (Go build cache, binary, traces) stays
# under .bench_build in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0
(cd "$root/dsmbench" && go build -o "$out/dsmbench" .)
exec "$out/dsmbench" "$@"
