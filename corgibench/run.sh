#!/usr/bin/env bash
# Builds the corgi-bench/1 benchmark from source and runs it with the
# given arguments. Run from the repository root:
#
#   bash corgibench/run.sh --workload http-cluster --seed 1 --seconds 15 --trace 0
#   bash corgibench/run.sh --smoke
#
# Every build and run artefact (Go build cache, Go's own config and
# telemetry files, the binary, forest stores, span dumps) stays under
# .bench_build/ in the current directory.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOFLAGS=-mod=readonly GOPROXY=off GOWORK=off GOTOOLCHAIN=local
go -C corgibench build -o "$out/corgibench" .
exec "$out/corgibench" "$@"
