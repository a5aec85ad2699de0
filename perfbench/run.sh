#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Everything the Go toolchain writes (build cache,
# module cache, telemetry, temporary files) stays under the build
# directory, and the build never reaches for the network: the driver
# imports only the standard library and the repository's own module.
set -euo pipefail
root=$(pwd)
out="$root/${CARGO_TARGET_DIR:-.bench_build}"
case "${CARGO_TARGET_DIR:-}" in /*) out=$CARGO_TARGET_DIR ;; esac
mkdir -p "$out/home" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOTOOLCHAIN=local GOFLAGS= GOENV=off
export GOPROXY=off GOSUMDB=off TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export PERFBENCH_SCRATCH="$out"
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
