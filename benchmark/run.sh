#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's source and runs it
# with the given flags. Run it from the repository root:
#
#   bash benchmark/run.sh --workload place-c532 --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# repository root: the Go build cache, the binary, the go command's
# config directory (its telemetry counters), and the run's scratch files
# (store directories, per-workload records).
set -euo pipefail

root=$PWD
out=$root/.bench_build
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/tmp" "$out/config"
export GOCACHE=$out/go-cache GOTMPDIR=$out/go-tmp GOMODCACHE=$out/go-mod \
	GOPATH=$out/go-path TMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go -C "$root/benchmark" build -o "$out/bin/benchmark" .
exec "$out/bin/benchmark" -workdir "$out/run" "$@"
