#!/usr/bin/env bash
# Builds afserve and the benchmark program (afbench) from this checkout's
# sources and runs one benchmark invocation. Run from the checkout root:
#
#   bash afbench/run.sh --workload hot-mix --seed 1 --seconds 10 --trace 0
#
# Workloads: hot-mix, cold-churn, rank-delta. --trace 1 prints the
# per-layer metrics instead of the end-to-end ones. Everything the build
# and the run write stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0
go build -o "$out/afserve" ./cmd/afserve
(cd "$root/afbench" && go build -o "$out/afbench" .)
exec "$out/afbench" -root "$root" -afserve "$out/afserve" "$@"
