#!/usr/bin/env bash
# Live smoke test: gengraph emits an edge stream, curl ingests it through
# dneserve's /api/graphs/live/ingest in batches under a GOMEMLIMIT while a
# concurrent client runs k-hop queries against the pinned-epoch read path,
# then the graph is compacted+rebalanced and its replication factor is
# compared against a batch HDRF partitioning of the identical graph (the
# RF-drift bound). The batch run also saves its partitioning (dnepart
# -save) as a graph directory. Finally the server is stopped with SIGTERM —
# the graceful path that seals the append-only tails — the saved directory
# is placed under its -graph-dir, and the server is restarted on it: the
# ingested graph's (edge, owner) checksum must survive the restart bit for
# bit, and the saved partitioning must restore as the named graph
# "seeded" with the batch run's partition count, |E| and edge balance.
set -euo pipefail

SCALE=${SCALE:-13}
EF=${EF:-16}
SEED=${SEED:-7}
PARTS=${PARTS:-8}
BATCH=${BATCH:-4096}
ADDR=${ADDR:-127.0.0.1:18793}
SERVE_GOMEMLIMIT=${SERVE_GOMEMLIMIT:-64MiB}
DRIFT_BOUND=${DRIFT_BOUND:-2.0}

workdir=$(mktemp -d)
server_pid=""
cleanup() {
  if [ -n "$server_pid" ]; then
    kill -9 "$server_pid" 2>/dev/null || true
    wait "$server_pid" 2>/dev/null || true
  fi
  rm -rf "$workdir"
}
trap cleanup EXIT

echo "== building CLIs"
go build -o "$workdir" ./cmd/gengraph ./cmd/dneserve ./cmd/dnepart

echo "== generating edge stream (rmat scale=$SCALE ef=$EF seed=$SEED)"
"$workdir/gengraph" -kind rmat -scale "$SCALE" -ef "$EF" -seed "$SEED" > "$workdir/edges.txt"

# Pack the stream into JSON ingest bodies, one per line. Every body carries
# parts+seed: the first creates the graph, the rest must match.
awk -v batch="$BATCH" -v parts="$PARTS" -v seed="$SEED" '
  /^#/ { next }
  { es = es (n++ ? "," : "") "[" $1 "," $2 "]"
    if (n == batch) { print "{\"parts\":" parts ",\"seed\":" seed ",\"edges\":[" es "]}"; es = ""; n = 0 } }
  END { if (n) print "{\"parts\":" parts ",\"seed\":" seed ",\"edges\":[" es "]}" }
' "$workdir/edges.txt" > "$workdir/batches.jsonl"
echo "   $(wc -l < "$workdir/batches.jsonl") ingest batches of <=$BATCH edges"

start_server() {
  GOMEMLIMIT=$SERVE_GOMEMLIMIT "$workdir/dneserve" -addr "$ADDR" -graph-dir "$workdir/graphs" \
    >> "$workdir/serve.log" 2>&1 &
  server_pid=$!
  for _ in $(seq 1 100); do
    code=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/healthz" || true)
    [ "$code" = "200" ] && return 0
    sleep 0.1
  done
  echo "FAIL: server on $ADDR did not come up"; cat "$workdir/serve.log"; exit 1
}

echo "== starting dneserve under GOMEMLIMIT=$SERVE_GOMEMLIMIT"
start_server

# Concurrent reader: k-hop queries against whatever epoch is published
# while ingestion and compaction run underneath it.
khop_ok=0
khop_loop() {
  local ok=0
  while [ ! -f "$workdir/stop" ]; do
    code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$ADDR/api/graphs/live/khop" \
      -d "{\"vertex\":$((RANDOM % 64)),\"k\":2}" || true)
    [ "$code" = "200" ] && ok=$((ok + 1))
    sleep 0.02
  done
  echo "$ok" > "$workdir/khop_ok"
}

echo "== ingesting via /api/graphs/live/ingest with a concurrent k-hop client"
head -1 "$workdir/batches.jsonl" | curl -sf -X POST "http://$ADDR/api/graphs/live/ingest" -d @- > /dev/null
khop_loop &
khop_pid=$!
tail -n +2 "$workdir/batches.jsonl" | while IFS= read -r body; do
  curl -sf -X POST "http://$ADDR/api/graphs/live/ingest" -d "$body" > /dev/null
done

echo "== compact + bounded rebalance under the same concurrent client"
curl -sf -X POST "http://$ADDR/api/graphs/live/compact" -d '{"rebalanceBudget":5000}' > "$workdir/compact.json"
touch "$workdir/stop"
wait "$khop_pid"
khop_ok=$(cat "$workdir/khop_ok")
echo "   concurrent k-hop queries answered: $khop_ok"
if [ "$khop_ok" -lt 10 ]; then
  echo "FAIL: reader starved while ingest/compaction ran ($khop_ok answers)"; exit 1
fi

curl -sf "http://$ADDR/api/graphs/live/stats?checksum=1" > "$workdir/stats.json"
live_sum=$(grep -o '"checksum":"[^"]*"' "$workdir/stats.json" | cut -d'"' -f4)
live_rf=$(grep -o '"replication_factor":[0-9.]*' "$workdir/stats.json" | head -1 | cut -d: -f2)
live_edges=$(grep -o '"num_edges":[0-9]*' "$workdir/stats.json" | head -1 | cut -d: -f2)
[ -n "$live_sum" ] && [ -n "$live_rf" ] || { echo "FAIL: missing checksum/RF in stats"; cat "$workdir/stats.json"; exit 1; }
echo "   live: |E|=$live_edges RF=$live_rf checksum=$live_sum"

echo "== batch reference: in-memory HDRF on the identical graph, saved as a graph directory"
"$workdir/dnepart" -rmat "$SCALE" -ef "$EF" -seed "$SEED" -parts "$PARTS" -method hdrf \
  -save "$workdir/seeded" > "$workdir/batch.log"
batch_rf=$(awk '/^replication factor:/ {print $3}' "$workdir/batch.log")
batch_eb=$(awk '/^edge balance:/ {print $3}' "$workdir/batch.log")
batch_edges=$(sed -n 's/^graph: .*|E|=\([0-9]*\).*/\1/p' "$workdir/batch.log")
echo "   batch: |E|=$batch_edges RF=$batch_rf edge balance=$batch_eb"
if [ "$live_edges" != "$batch_edges" ]; then
  echo "FAIL: live graph holds $live_edges edges, canonical graph has $batch_edges"; exit 1
fi
if ! awk -v l="$live_rf" -v b="$batch_rf" -v bound="$DRIFT_BOUND" \
     'BEGIN { d = l / b; printf "   rf drift: %.3fx (bound %.1fx)\n", d, bound; exit !(d < bound) }'; then
  echo "FAIL: live RF drifted beyond ${DRIFT_BOUND}x of batch HDRF"; exit 1
fi

echo "== SIGTERM (graceful: seals tails), place the saved directory under -graph-dir, restart"
kill -TERM "$server_pid"
wait "$server_pid" || true
server_pid=""
mv "$workdir/seeded" "$workdir/graphs/seeded"
start_server
curl -sf "http://$ADDR/api/graphs/live/stats?checksum=1" > "$workdir/stats2.json"
resumed_sum=$(grep -o '"checksum":"[^"]*"' "$workdir/stats2.json" | cut -d'"' -f4)
echo "   resumed checksum: $resumed_sum"
if [ "$live_sum" != "$resumed_sum" ]; then
  echo "FAIL: restart drifted: $live_sum != $resumed_sum"; exit 1
fi

curl -sf "http://$ADDR/api/graphs/seeded/stats" > "$workdir/seeded.json"
seeded_name=$(grep -o '"graph":"[^"]*"' "$workdir/seeded.json" | head -1 | cut -d'"' -f4)
seeded_parts=$(grep -o '"num_parts":[0-9]*' "$workdir/seeded.json" | head -1 | cut -d: -f2)
seeded_edges=$(grep -o '"num_edges":[0-9]*' "$workdir/seeded.json" | head -1 | cut -d: -f2)
seeded_eb=$(grep -o '"edge_balance":[0-9.eE+-]*' "$workdir/seeded.json" | head -1 | cut -d: -f2)
seeded_eb=$(awk -v x="$seeded_eb" 'BEGIN { printf "%.4f", x }')
grep -q '"restored":true' "$workdir/seeded.json" || { echo "FAIL: seeded not marked restored"; cat "$workdir/seeded.json"; exit 1; }
echo "   restored graph $seeded_name: parts=$seeded_parts |E|=$seeded_edges edge balance=$seeded_eb"
if [ "$seeded_name" != "seeded" ] || [ "$seeded_parts" != "$PARTS" ] || [ "$seeded_edges" != "$batch_edges" ] \
   || [ "$seeded_eb" != "$batch_eb" ]; then
  echo "FAIL: saved partitioning restores as '$seeded_name' with parts=$seeded_parts |E|=$seeded_edges EB=$seeded_eb," \
    "batch run has parts=$PARTS |E|=$batch_edges EB=$batch_eb"
  cat "$workdir/seeded.json" "$workdir/serve.log"; exit 1
fi
echo "OK: ingested live under GOMEMLIMIT with non-blocking reads, RF within ${DRIFT_BOUND}x of batch, restart bit-identical, saved batch partitioning restored as a named graph"
