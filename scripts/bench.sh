#!/usr/bin/env bash
# bench.sh — run the tier-1 micro-benchmark set and emit a machine-
# readable perf trajectory point.
#
# Usage:
#   scripts/bench.sh [output.json]     # default: BENCH_new.json
#   BENCHTIME=3x scripts/bench.sh      # override -benchtime
#   COUNT=10 scripts/bench.sh          # override -count (default 5)
#
# Every benchmark runs COUNT times. The JSON records the host (Go
# version, GOMAXPROCS, CPU model) and, per benchmark, one line holding
# the median ns/op (ns_per_op), its min and max over the runs, the
# median allocs/op (null for benchmarks run without -benchmem counters)
# and the medians of any custom b.ReportMetric units (draws/op,
# saved_frac, ...). scripts/benchcmp.sh diffs two such points and calls
# a change a regression only when the min–max ranges do not overlap.
# Delta repair's saving and its byte cost are tracked this way:
# BenchmarkDeltaRepairVsResample's redrawn_frac (1- and 2-edge random
# deltas) and BenchmarkSamplePool's touch_B/draw. "Spill" matches the
# root BenchmarkSpillReload and the server's BenchmarkSpillRoundTrip (one
# Wiki-analog pair restored from and evicted to the spill log per op;
# spill_B/op) and BenchmarkSpillLoad (cold-churn's miss path: a restore
# and a SolveMax at budget 4, no write). BenchmarkFamilyFold records
# /full and /budget4 (the fold a SolveMax at budget 4 pays) separately.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_new.json}"
benchtime="${BENCHTIME:-1s}"
count="${COUNT:-5}"
pattern='FamilyFold|RepeatedSolves|SolveMaxBudgetSweep|CoverageSweep|CoverageScan|SetcoverGreedy|SamplePool|Snapshot|Spill|Pmax|Delta|TopK|Obs|Proto|Admission|Vmax|ServerManyPairs'

raw="$(mktemp)"
samples="$(mktemp)"
trap 'rm -f "$raw" "$samples"' EXIT

# The root package carries the paper-artifact and protocol benches; the
# admission-gate and spill round-trip benches live with the server.
go test -run 'xxx' -bench "$pattern" -benchmem -benchtime "$benchtime" -count "$count" . ./internal/server | tee "$raw" >&2

# One "name unit value" line per measurement, sorted so each
# (name, unit) group is contiguous and ascending by value.
awk '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)   # strip the GOMAXPROCS suffix
    for (i = 3; i < NF; i += 2) {
        if ($(i + 1) != "B/op") print name, $(i + 1), $i
    }
}
' "$raw" | sort -k1,1 -k2,2 -k3,3g > "$samples"

goversion="$(go env GOVERSION)"
procs="$(awk '/^Benchmark/ { n = $1; if (sub(/.*-/, "", n)) { print n; exit } }' "$raw")"
cpu="$(awk -F': ' '/^cpu: / { print $2; exit }' "$raw")"

awk -v goversion="$goversion" -v procs="${procs:-1}" -v cpu="$cpu" -v count="$count" '
function flush_unit(   mid) {
    if (cur == "") return
    mid = vals[int((nv + 1) / 2)]
    if (unit == "ns/op") {
        ns[name] = mid; nsmin[name] = vals[1]; nsmax[name] = vals[nv]
    } else if (unit == "allocs/op") {
        allocs[name] = mid
    } else {
        extra[name] = extra[name] (extra[name] == "" ? "" : ", ") sprintf("\"%s\": %s", unit, mid)
    }
    if (!(name in seen)) { seen[name] = 1; order[++nnames] = name }
}
{
    key = $1 SUBSEP $2
    if (key != cur) { flush_unit(); cur = key; name = $1; unit = $2; nv = 0 }
    vals[++nv] = $3
}
END {
    flush_unit()
    printf "{\n  \"go\": \"%s\", \"gomaxprocs\": %s, \"cpu\": \"%s\", \"count\": %s,\n  \"benchmarks\": [\n", goversion, procs, cpu, count
    for (i = 1; i <= nnames; i++) {
        n = order[i]
        printf "  {\"name\": \"%s\", \"ns_per_op\": %s, \"allocs_per_op\": %s, \"ns_min\": %s, \"ns_max\": %s, \"metrics\": {%s}}%s\n",
            n, ns[n], (n in allocs) ? allocs[n] : "null", nsmin[n], nsmax[n], extra[n], (i < nnames) ? "," : ""
    }
    printf "  ]\n}\n"
}
' "$samples" > "$out"

echo "wrote $(grep -c '"name"' "$out") benchmark results to $out" >&2
