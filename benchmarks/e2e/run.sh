#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Called from the root of a
# checkout as `bash benchmarks/e2e/run.sh --workload <name> --seed <n>
# --seconds <s> --trace <0|1>`; every file the build or the run writes goes
# under .bench_build/ in the directory it was called from.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
work="$PWD/.bench_build"
mkdir -p "$work/tmp"
export GOCACHE="$work/gocache" GOPATH="$work/gopath" GOTMPDIR="$work/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$work/e2e" .) >&2
exec "$work/e2e" -workdir "$work" "$@"
