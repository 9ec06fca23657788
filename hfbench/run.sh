#!/usr/bin/env bash
# Builds the hfbench benchmark from the checkout this script sits in and
# runs it with the given arguments, from the checkout's root:
#
#   bash hfbench/run.sh --workload scf-benzene --seed 1 --seconds 50 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files and the served workload's
# WAL segments.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/hfbench" && go build -o "$build/hfbench" .)
cd "$root"
exec "$build/hfbench" -workdir "$build/work" "$@"
