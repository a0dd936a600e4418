#!/usr/bin/env bash
# Distributed smoke test: gengraph writes shard files, four dneworker
# processes partition them over TCP on localhost, and the resulting
# partitioning checksum must equal the in-process run's (dnepart -checksum)
# for the same graph, seed and partition count. This is the end-to-end proof
# that the sharded data plane — shard files, shuffle, per-rank subgraphs,
# the superstep protocol and collectives over the framed TCP transport —
# reproduces the in-process partitioning bit for bit.
set -euo pipefail

SCALE=${SCALE:-12}
EF=${EF:-8}
SEED=${SEED:-7}
PARTS=${PARTS:-4}
SHARDS=${SHARDS:-8}
ADDR=${ADDR:-127.0.0.1:17791}

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

echo "== building CLIs"
go build -o "$workdir" ./cmd/gengraph ./cmd/dnepart ./cmd/dneworker

echo "== writing $SHARDS shards (rmat scale=$SCALE ef=$EF seed=$SEED)"
"$workdir/gengraph" -kind rmat -scale "$SCALE" -ef "$EF" -seed "$SEED" \
  -shards "$SHARDS" -shard-dir "$workdir/shards"

echo "== in-process reference partitioning"
want=$("$workdir/dnepart" -rmat "$SCALE" -ef "$EF" -seed "$SEED" -parts "$PARTS" \
  -method dne -checksum | awk '/^partitioning checksum:/ {print $3}')
[ -n "$want" ] || { echo "FAIL: no in-process checksum"; exit 1; }
echo "   checksum: $want"

echo "== $PARTS dneworker processes over shards"
pids=()
for rank in $(seq 1 $((PARTS - 1))); do
  "$workdir/dneworker" -rank "$rank" -size "$PARTS" -addr "$ADDR" \
    -shard-dir "$workdir/shards" -seed "$SEED" &
  pids+=($!)
done
"$workdir/dneworker" -rank 0 -size "$PARTS" -addr "$ADDR" \
  -shard-dir "$workdir/shards" -seed "$SEED" | tee "$workdir/rank0.log"
for pid in "${pids[@]}"; do wait "$pid"; done

got=$(awk '/RESULT/ {for (i=1;i<=NF;i++) if ($i ~ /^checksum=/) {sub("checksum=","",$i); print $i}}' \
  "$workdir/rank0.log")
[ -n "$got" ] || { echo "FAIL: no RESULT checksum from rank 0"; exit 1; }

echo "== in-process:   $want"
echo "== multiprocess: $got"
if [ "$want" != "$got" ]; then
  echo "FAIL: multi-process shard partitioning differs from in-process run"
  exit 1
fi
echo "OK: identical partitioning across data planes"
