#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# into .bench_build/ at the repository root and runs it. Every file the
# Go toolchain or the benchmark writes stays under that directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [ ! -f "$root/go.mod" ]; then
	echo "benchmark: $root holds no go.mod; the benchmark measures the module it sits in and cannot run without it" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTMPDIR="$build" GOPATH="$build/gopath"
export GOMODCACHE="$build/gomodcache" GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -C "$here" -o "$build/psdns-bench" .
exec "$build/psdns-bench" -workdir "$build/work" "$@"
