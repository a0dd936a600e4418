#!/usr/bin/env bash
# Non-test Go line count: prints the non-blank lines of every non-test .go
# file, summed per package directory, then the total. Code under
# benchmarks/ (its own module) and under any testdata/ directory is left
# out. Run from anywhere inside the repository: bash scripts/loc.sh
set -euo pipefail

cd "$(dirname "$0")/.."
find . -name '*.go' -not -name '*_test.go' \
  -not -path './benchmarks/*' -not -path '*/testdata/*' -print0 |
  xargs -0 grep -c -v '^[[:space:]]*$' |
  awk -F: '{
      dir = $1; sub(/\/[^\/]*$/, "", dir); sub(/^\.\/?/, "", dir)
      if (dir == "") dir = "."
      lines[dir] += $2; total += $2
    }
    END {
      for (d in lines) printf "%7d  %s\n", lines[d], d | "sort -k2"
      close("sort -k2")
      printf "%7d  total\n", total
    }'
