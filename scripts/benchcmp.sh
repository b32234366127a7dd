#!/usr/bin/env bash
# benchcmp.sh — diff two BENCH_*.json perf-trajectory points (written by
# scripts/bench.sh) and print per-benchmark ns/op and allocs/op ratios.
#
# Usage:
#   scripts/benchcmp.sh old.json new.json
#   scripts/benchcmp.sh new.json          # old = latest committed BENCH_pr*.json
#
# A benchmark is flagged as a regression only when its min–max range
# over the runs lies entirely above the old one (and as an improvement
# only when entirely below): overlapping ranges are noise, whatever the
# ratio of the medians (Kalibera & Jones, "Rigorous Benchmarking in
# Reasonable Time", ISMM 2013). A point written before bench.sh recorded
# ranges counts as the single sample min = max = ns_per_op.
#
# Exit status is always 0: the trajectory is a review signal, not a hard
# gate — set BENCHCMP_MAX_RATIO to fail when a flagged regression's
# median ratio (new/old) exceeds it, e.g. BENCHCMP_MAX_RATIO=1.5 in a
# strict CI lane.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -eq 2 ]; then
  old="$1" new="$2"
elif [ "$#" -eq 1 ]; then
  new="$1"
  old="$(ls BENCH_pr*.json 2>/dev/null | sort -t r -k 2 -n | tail -1 || true)"
  if [ -z "$old" ]; then
    echo "benchcmp: no committed BENCH_pr*.json to compare against" >&2
    exit 1
  fi
else
  echo "usage: $0 [old.json] new.json" >&2
  exit 1
fi
[ -r "$old" ] || { echo "benchcmp: cannot read $old" >&2; exit 1; }
[ -r "$new" ] || { echo "benchcmp: cannot read $new" >&2; exit 1; }
echo "benchcmp: $old -> $new" >&2

# Both formats keep one benchmark object per line; pull
# (name, median ns/op, allocs/op, min, max) per line without needing jq.
extract() {
  awk '
  function field(key,   re) {
    re = "\"" key "\": *[^,}]*"
    if (!match($0, re)) return ""
    v = substr($0, RSTART, RLENGTH)
    sub(/^[^:]*: */, "", v)
    gsub(/"/, "", v)
    return v
  }
  /"name":/ {
    ns = field("ns_per_op"); lo = field("ns_min"); hi = field("ns_max")
    if (lo == "") lo = ns
    if (hi == "") hi = ns
    print field("name"), ns, field("allocs_per_op"), lo, hi
  }' "$1"
}

extract "$old" | sort >/tmp/benchcmp_old.$$
extract "$new" | sort >/tmp/benchcmp_new.$$
trap 'rm -f /tmp/benchcmp_old.$$ /tmp/benchcmp_new.$$' EXIT

join /tmp/benchcmp_old.$$ /tmp/benchcmp_new.$$ | awk -v maxratio="${BENCHCMP_MAX_RATIO:-0}" '
BEGIN {
  printf "%-50s %24s %24s %8s %10s %s\n", "benchmark", "old ns/op [min,max]", "new ns/op [min,max]", "ratio", "allocs", "verdict"
  bad = 0
}
{
  name = $1; ons = $2; oal = $3; olo = $4; ohi = $5; nns = $6; nal = $7; nlo = $8; nhi = $9
  ratio = (ons > 0) ? nns / ons : 0
  alloc = (oal == "null" || nal == "null") ? "-" : sprintf("%s->%s", oal, nal)
  verdict = "~"
  if (nlo > ohi) verdict = "REGRESSION"
  else if (nhi < olo) verdict = "faster"
  printf "%-50s %24s %24s %7.2fx %10s %s\n", name, sprintf("%.0f [%.0f,%.0f]", ons, olo, ohi),
    sprintf("%.0f [%.0f,%.0f]", nns, nlo, nhi), ratio, alloc, verdict
  if (verdict == "REGRESSION" && maxratio + 0 > 0 && ratio > maxratio + 0) {
    printf "REGRESSION: %s ns/op ratio %.2f exceeds %.2f with disjoint ranges\n", name, ratio, maxratio > "/dev/stderr"
    bad = 1
  }
}
END { exit bad }
'

# Benchmarks present on only one side are new or retired — list them so a
# silently dropped benchmark cannot read as "no regression".
join -v 1 /tmp/benchcmp_old.$$ /tmp/benchcmp_new.$$ | awk '{print "only in old: " $1}'
join -v 2 /tmp/benchcmp_old.$$ /tmp/benchcmp_new.$$ | awk '{print "only in new: " $1}'
