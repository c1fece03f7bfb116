#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it with the given
# arguments. Everything the build writes (Go build cache included) stays
# under .bench_build/ in the current directory, the root of the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out"

# Keep the toolchain's own writes (build cache, module cache, telemetry
# counters) in the checkout, and keep it off the network and off the
# user's configuration.
export GOCACHE="$out/go-cache"
export GOPATH="$out/go-path"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off

go -C "$here" build -o "$out/nmad-benchmark" .
exec "$out/nmad-benchmark" "$@"
