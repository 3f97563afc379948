#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
#
#   bash lambdabench/run.sh --workload debloat_corpus --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and the
# traced runs' span files all stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
[ -f "$root/lambdabench/go.mod" ] || { echo "run from the repository root" >&2; exit 2; }
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOENV=off

# The toolchain keeps its own settings and counters under the user config
# directory; point it into the build directory too.
mkdir -p "$out/home"
(cd "$root/lambdabench" && HOME="$out/home" XDG_CONFIG_HOME="$out/home" go build -o "$out/lambdabench" .) >&2
exec "$out/lambdabench" --out "$out" "$@"
