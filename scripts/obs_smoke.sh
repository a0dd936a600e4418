#!/usr/bin/env bash
# Observability smoke test: dneserve starts with a debug listener, a graph
# is built and queried, a second graph ingests, is queried and compacts,
# and then /metrics must expose nonzero store, live, HTTP and runtime
# families in valid Prometheus text format; /debug/trace must hold
# partition phase spans, and the pprof index must answer on the debug port.
# Finally loadgen -url -scrape drives a random and a dne graph on the same
# server over HTTP:
# each method must report a drift line from the server's /metrics, no query
# may fail, and DNE's hops/query must be below Random's — the paper's claim
# and every layer's instrumentation, checked end to end.
set -euo pipefail

ADDR=${ADDR:-127.0.0.1:18801}
DEBUG_ADDR=${DEBUG_ADDR:-127.0.0.1:18802}
SCALE=${SCALE:-8}
EF=${EF:-8}
PARTS=${PARTS:-4}

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
go build -o "$workdir" ./cmd/dneserve ./cmd/loadgen

echo "== starting dneserve with -debug-addr"
"$workdir/dneserve" -addr "$ADDR" -debug-addr "$DEBUG_ADDR" -graph-dir "$workdir/graphs" \
  > /dev/null 2> "$workdir/access.log" &
server_pid=$!
for _ in $(seq 1 100); do
  code=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/healthz" || true)
  [ "$code" = "200" ] && break
  sleep 0.1
done
[ "$code" = "200" ] || { echo "FAIL: server did not come up"; cat "$workdir/access.log"; exit 1; }

echo "== partition + graph build + queries + a second graph's ingest/compact"
curl -sf -X POST "http://$ADDR/api/partition" \
  -d "{\"method\":\"dne\",\"parts\":$PARTS,\"rmat\":{\"scale\":$SCALE,\"ef\":$EF,\"seed\":7}}" > /dev/null
curl -sf -X POST "http://$ADDR/api/graphs" \
  -d "{\"method\":\"dne\",\"parts\":$PARTS,\"name\":\"smoke\",\"rmat\":{\"scale\":$SCALE,\"ef\":$EF,\"seed\":7}}" > /dev/null
for v in 0 1 2 3 4 5 6 7; do
  curl -sf -X POST "http://$ADDR/api/graphs/smoke/neighbors" -d "{\"vertex\":$v}" > /dev/null
  curl -sf -X POST "http://$ADDR/api/graphs/smoke/khop" -d "{\"vertex\":$v,\"k\":2}" > /dev/null
done
curl -sf -X POST "http://$ADDR/api/graphs/live/ingest" \
  -d "{\"parts\":$PARTS,\"edges\":[[0,1],[1,2],[2,3],[3,0],[0,2],[1,3]]}" > /dev/null
curl -sf -X POST "http://$ADDR/api/graphs/live/neighbors" -d '{"vertices":[0,1,2]}' > /dev/null
curl -sf -X POST "http://$ADDR/api/graphs/live/khop" -d '{"vertex":0,"k":2}' > /dev/null
curl -sf -X POST "http://$ADDR/api/graphs/live/compact" -d '{}' > /dev/null

echo "== scraping /metrics"
curl -sf "http://$ADDR/metrics" > "$workdir/metrics.txt"

metric_value() {
  # Sum every sample of the family (all label sets).
  awk -v fam="$1" '$1 ~ "^" fam "({|$)" { s += $NF } END { printf "%d\n", s }' "$workdir/metrics.txt"
}
assert_nonzero() {
  v=$(metric_value "$1")
  if [ "${v:-0}" -le 0 ]; then
    echo "FAIL: family $1 is zero or missing on /metrics"
    grep -m5 "^$1" "$workdir/metrics.txt" || true
    exit 1
  fi
  echo "   $1 = $v"
}

# Format sanity: every non-comment line is "name{labels} value" or "name
# value", each label name="value" with a quoted value that may hold braces
# (a route label reads "/api/graphs/{id}/khop").
if awk '!/^#/ && NF && !/^[a-zA-Z_:][a-zA-Z0-9_:]*(\{([a-zA-Z_][a-zA-Z0-9_]*="([^"\\]|\\.)*",?)*\})? [-+0-9.eEInf]+$/ { print; bad=1 } END { exit bad }' \
     "$workdir/metrics.txt"; then
  echo "   exposition format OK ($(grep -c . "$workdir/metrics.txt") lines)"
else
  echo "FAIL: malformed exposition lines above"; exit 1
fi

assert_nonzero "dne_store_query_duration_seconds_count"
assert_nonzero "dne_store_shard_touches_total"
assert_nonzero "dne_live_edges"
assert_nonzero "dne_live_apply_duration_seconds_count"
# The store times every query of every graph, each kind on its own.
for kind in neighbors khop; do
  v=$(awk -v l="dne_store_query_duration_seconds_count{kind=\"$kind\"}" '$1 == l { print $NF }' "$workdir/metrics.txt")
  if [ "${v:-0}" -le 0 ]; then
    echo "FAIL: dne_store_query_duration_seconds_count{kind=\"$kind\"} is zero or missing"; exit 1
  fi
  echo "   dne_store_query_duration_seconds_count{kind=\"$kind\"} = $v"
done
assert_nonzero "dne_http_requests_total"
assert_nonzero "dne_go_goroutines"

echo "== structured access log"
if ! grep -q '"path":"/api/graphs/smoke/neighbors"' "$workdir/access.log"; then
  echo "FAIL: no structured access-log line for the query endpoint"
  tail -5 "$workdir/access.log"; exit 1
fi
echo "   access log carries method/path/status/duration JSON lines"

echo "== debug listener: pprof + trace"
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$DEBUG_ADDR/debug/pprof/")
[ "$code" = "200" ] || { echo "FAIL: pprof index returned $code"; exit 1; }
curl -sf "http://$DEBUG_ADDR/debug/trace" > "$workdir/trace.json"
grep -q '"cat": *"partition"' "$workdir/trace.json" \
  || { echo "FAIL: trace ring has no partition spans"; head -c 400 "$workdir/trace.json"; exit 1; }
curl -sf "http://$DEBUG_ADDR/debug/trace?format=chrome" | grep -q '"traceEvents"' \
  || { echo "FAIL: chrome trace dump malformed"; exit 1; }
echo "   pprof answers, trace ring holds partition spans (json + chrome)"

echo "== loadgen -url -scrape: random vs dne over HTTP"
"$workdir/loadgen" -url "http://$ADDR" -methods random,dne -parts "$PARTS" -rmat-scale "$SCALE" -rmat-ef "$EF" \
  -queries 2000 -workers 2 -scrape -scrape-interval 50ms > "$workdir/loadgen.log"
cat "$workdir/loadgen.log"
n=$(grep -c '^scrape: .*drift' "$workdir/loadgen.log" || true)
[ "$n" = 2 ] || { echo "FAIL: want one scrape drift line per method, got $n"; exit 1; }
if grep -q '^failures:' "$workdir/loadgen.log"; then
  echo "FAIL: loadgen reported failed queries"; exit 1
fi
# hops/query is the table's next-to-last column.
hops() { awk -v m="$1" '$1 == m { print $(NF-1) }' "$workdir/loadgen.log"; }
rand_hops=$(hops Rand.)
dne_hops=$(hops D.NE)
awk -v r="$rand_hops" -v d="$dne_hops" 'BEGIN { exit !(r != "" && d != "" && d + 0 < r + 0) }' \
  || { echo "FAIL: DNE hops/query ($dne_hops) not below Random's ($rand_hops)"; exit 1; }
echo "   hops/query: D.NE $dne_hops < Rand. $rand_hops"

echo "OK: /metrics exposes nonzero store/live/http/runtime families, pprof and trace serve, loadgen drift reported and DNE pays fewer hops than Random"
