#!/usr/bin/env bash
# Builds the advisor benchmark from source and runs it. Run it from the
# repository root; every argument is passed on to the benchmark binary:
#
#   bash advbench/run.sh --workload cold-rndAt128x400c8 --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the traced runs' span files all stay
# under .bench_build/ in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

# Keep the go command's caches, temporary files and settings inside the
# checkout, and never let it reach for a toolchain or module download.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd advbench && go build -o "$out/advbench" .)
exec "$out/advbench" "$@"
