#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.:
#
#   bash perfbench/run.sh --workload sim-age --seed 1 --seconds 20 --trace 0
#
# Build output, the Go build cache and traces stay under .bench_build in
# the checkout. The build fails (and nothing is run) outside a checkout
# of the repository, since the benchmark module imports it from "..".
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
