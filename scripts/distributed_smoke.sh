#!/usr/bin/env bash
# Distributed smoke test: gengraph writes shard files, four dneworker
# processes partition them over TCP on localhost, and the resulting
# partitioning checksum must equal the in-process run's (dnepart -checksum)
# for the same graph, seed and partition count. This is the end-to-end proof
# that the sharded data plane — shard files, shuffle, per-rank subgraphs,
# the superstep protocol and collectives over the framed TCP transport —
# reproduces the in-process partitioning bit for bit. The four workers then
# run a second time with -ckpt-dir, the checkpointed mode of the same driver,
# and must print the same checksum.
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

# run_workers <log> [extra flags...]: one dneworker per rank over the shards,
# rank 0 in the foreground; prints rank 0's RESULT checksum. It fails if any
# worker exits non-zero. It runs inside $(...), where bash turns errexit off,
# so every exit status is checked explicitly, after all workers are reaped.
run_workers() {
  local log=$1
  shift
  local pids=() rank pid status=0
  for rank in $(seq 1 $((PARTS - 1))); do
    "$workdir/dneworker" -rank "$rank" -size "$PARTS" -addr "$ADDR" \
      -shard-dir "$workdir/shards" -seed "$SEED" "$@" >&2 &
    pids+=($!)
  done
  "$workdir/dneworker" -rank 0 -size "$PARTS" -addr "$ADDR" \
    -shard-dir "$workdir/shards" -seed "$SEED" "$@" >"$log" || status=1
  for pid in "${pids[@]}"; do wait "$pid" || status=1; done
  cat "$log" >&2
  [ "$status" -eq 0 ] || return 1
  awk '/RESULT/ {for (i=1;i<=NF;i++) if ($i ~ /^checksum=/) {sub("checksum=","",$i); print $i}}' "$log"
}

echo "== $PARTS dneworker processes over shards"
got=$(run_workers "$workdir/rank0.log") || { echo "FAIL: a worker exited non-zero"; exit 1; }
[ -n "$got" ] || { echo "FAIL: no RESULT checksum from rank 0"; exit 1; }

echo "== the same $PARTS workers with -ckpt-dir"
mkdir -p "$workdir/ckpt"
got_ckpt=$(run_workers "$workdir/rank0-ckpt.log" -ckpt-dir "$workdir/ckpt") ||
  { echo "FAIL: a checkpointed worker exited non-zero"; exit 1; }
[ -n "$got_ckpt" ] || { echo "FAIL: no RESULT checksum from checkpointed rank 0"; exit 1; }

echo "== in-process:   $want"
echo "== multiprocess: $got"
echo "== checkpointed: $got_ckpt"
if [ "$want" != "$got" ]; then
  echo "FAIL: multi-process shard partitioning differs from in-process run"
  exit 1
fi
if [ "$want" != "$got_ckpt" ]; then
  echo "FAIL: checkpointed multi-process partitioning differs from in-process run"
  exit 1
fi
echo "OK: identical partitioning across data planes, with and without checkpoints"
