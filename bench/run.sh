#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it.
# Everything the build and the run write stays inside the checkout:
# the Go build and module caches, the Go temp dir, the toolchain's
# per-user config (its telemetry counters) and the binary under
# .bench_build/, scratch data and traces under bench/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
# bench/ is a module of its own whose go.mod replaces the engine's
# module with the parent directory; without the engine's source there
# the build fails and the script exits non-zero before printing a result.
(cd "$here" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
