#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout:
#
#   bash hostbench/run.sh --workload e1_wilson --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the binary, and the result and span
# files (.bench_build/results). The first run in a fresh checkout
# compiles the simulator and the standard library; later runs reuse the
# cache. The build fails, and nothing is printed on stdout, when the
# simulator's sources are not beside the benchmark.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=-buildvcs=false

(cd "$root/hostbench" && go build -o "$build/hostbench" .) >&2

# The commit of the checkout, when it is a git work tree of its own.
commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)

exec "$build/hostbench" "$@" -out "$build/results" -commit "$commit"
