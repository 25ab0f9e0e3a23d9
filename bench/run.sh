#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it. Run from the
# repository root:
#
#   bash bench/run.sh --workload mesh-16 --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh -compare base.jsonl change.jsonl
#
# Everything the build and the run write stays under .bench_build/ in the
# working directory: the Go build cache, temporary files, the binary, the
# serve workload's disk cache and the Chrome traces of traced runs.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The build must never reach the network: no toolchain or module downloads.
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly CGO_ENABLED=0

(cd bench && go build -o "$out/etperf" .)
exec "$out/etperf" "$@"
