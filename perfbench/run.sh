#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it with the given arguments, from the checkout's root:
#
#	bash perfbench/run.sh --workload join-hot --seed 42 --seconds 30 --trace 0
#
# Everything the build and the run leave behind stays under .bench_build/ in
# the checkout: the Go build cache, the module cache, and the binary.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
