#!/usr/bin/env bash
# Streaming smoke test: gengraph writes compressed (ESZ1) canonical shard
# stripes, graphstat must report them at least 2x smaller than raw, dnepart
# -stream partitions them with HDRF under a GOMEMLIMIT far below the
# materialized graph size, and the checksum must equal the in-memory run's
# for the same graph, seed and partition count. This is the end-to-end
# proof of the source-based input API: a single-pass method consumes the
# shard directory in dense-state + chunk memory — decode-ahead prefetcher
# and spill-backed shuffle included — and still reproduces the in-memory
# partitioning bit for bit.
set -euo pipefail

SCALE=${SCALE:-16}
EF=${EF:-16}
SEED=${SEED:-7}
PARTS=${PARTS:-16}
SHARDS=${SHARDS:-4}
# The scale-16/ef-16 graph materializes to ~26 MB of accounted CSR+edges
# alone; the stream run is held far under that. GOMEMLIMIT is a soft limit,
# so a regression back to materializing would thrash rather than die — the
# hard assertion is TestStreamingMemoryBudget's accounting; this job proves
# the real binary stays comfortable under the budget AND matches checksums.
STREAM_GOMEMLIMIT=${STREAM_GOMEMLIMIT:-24MiB}

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

echo "== building CLIs"
go build -o "$workdir" ./cmd/gengraph ./cmd/dnepart ./cmd/graphstat

echo "== writing $SHARDS compressed canonical stripes (rmat scale=$SCALE ef=$EF seed=$SEED)"
"$workdir/gengraph" -kind rmat -scale "$SCALE" -ef "$EF" -seed "$SEED" \
  -shards "$SHARDS" -canonical -compress -shard-dir "$workdir/shards"
ls "$workdir/shards" | grep -q '\.esz$' || { echo "FAIL: no *.esz files written"; exit 1; }

echo "== compressed set inspects in place, ratio >= 2x"
"$workdir/graphstat" -shard-dir "$workdir/shards" > "$workdir/stat.log"
head -7 "$workdir/stat.log"
ratio=$(awk '/^# total/ {sub(/x$/, "", $NF); print $NF}' "$workdir/stat.log")
[ -n "$ratio" ] || { echo "FAIL: graphstat printed no total compression ratio"; exit 1; }
awk -v r="$ratio" 'BEGIN { exit (r >= 2.0) ? 0 : 1 }' \
  || { echo "FAIL: compression ratio ${ratio}x < 2x"; exit 1; }

echo "== in-memory reference partitioning (hdrf)"
want=$("$workdir/dnepart" -rmat "$SCALE" -ef "$EF" -seed "$SEED" -parts "$PARTS" \
  -method hdrf -checksum | awk '/^partitioning checksum:/ {print $3}')
[ -n "$want" ] || { echo "FAIL: no in-memory checksum"; exit 1; }
echo "   checksum: $want"

echo "== streamed partitioning from shard dir under GOMEMLIMIT=$STREAM_GOMEMLIMIT"
GOMEMLIMIT=$STREAM_GOMEMLIMIT "$workdir/dnepart" -stream -shard-dir "$workdir/shards" \
  -seed "$SEED" -parts "$PARTS" -method hdrf -checksum | tee "$workdir/stream.log"
got=$(awk '/^partitioning checksum:/ {print $3}' "$workdir/stream.log")
[ -n "$got" ] || { echo "FAIL: no streamed checksum"; exit 1; }

grep -q "cannot stream" "$workdir/stream.log" \
  && { echo "FAIL: hdrf fell back to materializing the source"; exit 1; }
grep -q "^throughput: " "$workdir/stream.log" \
  || { echo "FAIL: no edges/sec throughput line"; exit 1; }
grep -q "^bytes read from source: " "$workdir/stream.log" \
  || { echo "FAIL: no bytes-read line"; exit 1; }

echo "== in-memory: $want"
echo "== streamed:  $got"
if [ "$want" != "$got" ]; then
  echo "FAIL: streamed partitioning differs from in-memory run"
  exit 1
fi
echo "OK: identical partitioning from ${ratio}x-compressed stripes, streamed in O(dense-state + chunk) memory"
