#!/usr/bin/env bash
# bench.sh — run the tier-1 micro-benchmark set and emit a machine-
# readable perf trajectory point.
#
# Usage:
#   scripts/bench.sh [output.json]     # default: BENCH_pr15.json
#   BENCHTIME=3x scripts/bench.sh      # override -benchtime
#
# The JSON is a flat array of {name, ns_per_op, allocs_per_op} so future
# PRs can diff against it: a regression shows up as a ratio, not a vibe.
# allocs_per_op is null for benchmarks run without -benchmem counters.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_pr15.json}"
benchtime="${BENCHTIME:-1s}"
pattern='RepeatedSolves|CoverageBatch|CoverageScan|CoverageIndexed|SetcoverGreedy|SamplePool|Snapshot|Spill|Pmax|Delta|TopK|Obs|Proto|Admission|Vmax|ServerManyPairs'

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

# The root package carries the paper-artifact and protocol benches; the
# admission-gate benches live with the server they gate.
go test -run 'xxx' -bench "$pattern" -benchmem -benchtime "$benchtime" . ./internal/server | tee "$raw" >&2

awk '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)   # strip the GOMAXPROCS suffix
    ns = $3
    allocs = "null"
    for (i = 4; i <= NF; i++) {
        if ($i == "allocs/op") allocs = $(i - 1)
    }
    if (n++) printf ",\n"
    printf "  {\"name\": \"%s\", \"ns_per_op\": %s, \"allocs_per_op\": %s}", name, ns, allocs
}
BEGIN { printf "[\n" }
END   { printf "\n]\n" }
' "$raw" > "$out"

echo "wrote $(grep -c '"name"' "$out") benchmark results to $out" >&2
