#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, for example:
#
#   bash warpbench/run.sh --workload police-cancel --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain and the benchmark write (build cache, module
# cache, telemetry, temporary files such as the traced run's CPU profile,
# the binary) goes under .bench_build/ at the root of the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-mod=mod

(cd "$root/warpbench" && go build -o "$out/warpbench" .)
cd "$root"
exec "$out/warpbench" "$@"
