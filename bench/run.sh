#!/bin/sh
# Builds the benchmark program and runs it with the given arguments, from
# anywhere inside the checkout. Build outputs and the Go build cache go
# under .bench_build/ in the checkout, so nothing is written outside it.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local
go build -C "$root/bench" -o "$root/.bench_build/bin/bench" .
exec "$root/.bench_build/bin/bench" "$@"
