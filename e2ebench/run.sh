#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash e2ebench/run.sh --workload hb3813-admit --seed 1 --seconds 20 --trace 0
#
# The build cache, temporary files and the binary stay under .bench_build/
# in the checkout. The build needs the repository's own go.mod one level up,
# so outside a full checkout it fails and nothing is run.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache"
export GOFLAGS=-mod=mod GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off
go -C "$(dirname "$0")" build -o "$out/e2ebench" . >&2
cd "$root"
exec "$out/e2ebench" "$@"
