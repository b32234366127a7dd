#!/usr/bin/env bash
# loc.sh — print the Go line counts the code-size aim is measured by:
# production code (non-test files outside afbench/), tests (every
# *_test.go outside afbench/) and the afbench module.
#
# Usage:
#   scripts/loc.sh
#
# Counts are physical lines (wc -l) of the files git tracks, so a
# checkout's build output and untracked files never count.
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
  # Reads NUL-separated paths on stdin; prints their total line count.
  xargs -0 -r cat | wc -l | tr -d ' '
}

prod=$(git ls-files -z -- '*.go' ':!:afbench/**' ':!:*_test.go' | count)
tests=$(git ls-files -z -- '*_test.go' ':!:afbench/**' | count)
bench=$(git ls-files -z -- 'afbench/*.go' | count)

printf 'production %s\n' "$prod"
printf 'tests      %s\n' "$tests"
printf 'afbench    %s\n' "$bench"
