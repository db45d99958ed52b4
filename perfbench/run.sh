#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it from the
# checkout root with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload bookstore-view --seed 1 --seconds 30 --trace 0
#
# Build cache, binary and trace output all stay under .bench_build/ in the
# checkout; nothing is fetched (the benchmark module's only dependency is
# the repository module itself, by a relative replace).
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
	GOFLAGS= GOPROXY=off GOWORK=off GOTOOLCHAIN=local
go -C "$here" build -o "$build/perfbench" . >&2
cd "$root"
exec "$build/perfbench" "$@"
