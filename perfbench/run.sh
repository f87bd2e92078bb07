#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments (see perfbench/README.md). Every build product and Go
# cache lives under .bench_build at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in /*) out="$target" ;; *) out="$root/$target" ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp"
export XDG_CACHE_HOME="$out/cache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
