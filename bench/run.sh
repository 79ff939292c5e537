#!/usr/bin/env bash
# run.sh builds the benchmark from source into .bench_build/ at the root
# of the checkout and runs it from there:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# With no arguments it runs every workload, timed and traced. The Go
# build cache, module cache and binary all stay inside the checkout. It
# fails (non-zero, no result line) when the repository it measures is
# not around it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C "$here" -o "$build/bench" .
cd "$root"
exec "$build/bench" "$@"
