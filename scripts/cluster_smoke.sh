#!/usr/bin/env bash
# cluster_smoke.sh — end-to-end smoke test of the cluster layer: boots
# two real xpathserve backends plus an xpathrouter in front (with
# write-time replication and the answer cache on), registers documents
# through the router, then drives a routed /query and a scatter-gather
# streamed /batch and checks the index/doc/node tags. It then kills
# one backend mid-run and asserts the routed query is served from the
# replica, and that repeated identical queries hit the router answer
# cache (with a re-registration invalidating it). The observability
# section scrapes /metrics on the router and the owning backend around
# a traced query and asserts the per-path counters move and the same
# X-Request-Id shows up in the backend's log. CI runs this after
# the unit suites; it is also handy locally:
#
#   bash scripts/cluster_smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.." || exit 1
bin=$(mktemp -d)
cleanup() {
  jobs -p | xargs -r kill 2>/dev/null || true
  rm -rf "$bin"
}
trap cleanup EXIT

go build -o "$bin/xpathserve" ./cmd/xpathserve
go build -o "$bin/xpathrouter" ./cmd/xpathrouter

# Backend logs are captured to files: the observability section greps
# them for the routed request's X-Request-Id.
"$bin/xpathserve" -addr 127.0.0.1:7101 2>"$bin/backend-7101.log" &
"$bin/xpathserve" -addr 127.0.0.1:7102 2>"$bin/backend-7102.log" &
backend2_pid=$!
"$bin/xpathrouter" -addr 127.0.0.1:7100 \
  -peers http://127.0.0.1:7101,http://127.0.0.1:7102 \
  -replicas 1 -replica-retry 1 -timeout 5s &

wait_for() {
  for _ in $(seq 1 50); do
    if curl -fsS "$1" >/dev/null 2>&1; then return 0; fi
    sleep 0.2
  done
  echo "timed out waiting for $1" >&2
  return 1
}
wait_for http://127.0.0.1:7101/healthz
wait_for http://127.0.0.1:7102/healthz
wait_for http://127.0.0.1:7100/health

# The router's /health must describe the placement ring.
curl -fsS http://127.0.0.1:7100/health | grep -q '"generation": *1' \
  || { echo "router /health carries no ring description" >&2; exit 1; }

# Register 8 documents through the router; the FNV-1a partitioning
# spreads doc-0..doc-7 across both backends, and -replicas 1 mirrors
# each one onto its ring successor.
for i in $(seq 0 7); do
  curl -fsS http://127.0.0.1:7100/documents \
    -d "{\"name\":\"doc-$i\",\"xml\":\"<a><b/><b/></a>\"}" >/dev/null
done

# Placement check: with 1 replica on a 2-node ring, every backend
# holds every document.
for port in 7101 7102; do
  n=$(curl -fsS "http://127.0.0.1:$port/healthz" | grep -o '"documents": *[0-9]*' | grep -o '[0-9]*$')
  [ "$n" -eq 8 ] || { echo "backend :$port holds $n documents, want all 8 (replication)" >&2; exit 1; }
  echo "backend :$port holds $n documents"
done

# Routed single-document query: correct value, node provenance tag.
out=$(curl -fsS 'http://127.0.0.1:7100/query?doc=doc-0&q=count(//b)')
echo "$out" | grep -q '"number": *2' || { echo "bad routed query: $out" >&2; exit 1; }
echo "$out" | grep -q '"node": *"127.0.0.1:710' || { echo "missing node tag: $out" >&2; exit 1; }

# Answer cache: the identical query again must be a hit, visible in
# /stats.
curl -fsS 'http://127.0.0.1:7100/query?doc=doc-0&q=count(//b)' >/dev/null
hits=$(curl -fsS http://127.0.0.1:7100/stats | grep -o '"answer_cache": *{[^}]*}' | grep -o '"hits": *[0-9]*' | grep -o '[0-9]*$')
[ "${hits:-0}" -ge 1 ] || { echo "repeated identical query produced no cache hit (hits=$hits)" >&2; exit 1; }
echo "answer cache hits: $hits"

# Re-registering the document invalidates the cached answer: the next
# query must see the new content.
curl -fsS http://127.0.0.1:7100/documents \
  -d '{"name":"doc-0","xml":"<a><b/><b/><b/></a>"}' >/dev/null
out=$(curl -fsS 'http://127.0.0.1:7100/query?doc=doc-0&q=count(//b)')
echo "$out" | grep -q '"number": *3' || { echo "stale answer after re-registration: $out" >&2; exit 1; }
inval=$(curl -fsS http://127.0.0.1:7100/stats | grep -o '"answer_cache": *{[^}]*}' | grep -o '"invalidations": *[0-9]*' | grep -o '[0-9]*$')
[ "${inval:-0}" -ge 1 ] || { echo "re-registration produced no invalidation (invalidations=$inval)" >&2; exit 1; }

# Scatter-gather batch across all 8 documents, 2 queries each: 16
# streamed NDJSON lines tagged with index/doc/node, covering both
# backend nodes (jobs are grouped per owning node, so this opens
# exactly one backend stream per node).
batch=$(curl -fsSN http://127.0.0.1:7100/batch \
  -d '{"docs":["doc-1","doc-2","doc-3","doc-4","doc-5","doc-6","doc-7"],"queries":["count(//b)","sum(//b) = 0"]}')
# grep -c exits 1 on zero matches but still prints 0; don't let set -e
# kill the script before the diagnostic below runs.
lines=$(echo "$batch" | grep -c '"index":' || true)
[ "$lines" -eq 14 ] || { echo "batch returned $lines lines, want 14:" >&2; echo "$batch" >&2; exit 1; }
nodes=$(echo "$batch" | grep -o '"node":"127.0.0.1:[0-9]*"' | sort -u | wc -l)
[ "$nodes" -eq 2 ] || { echo "batch lines from $nodes node(s), want 2:" >&2; echo "$batch" >&2; exit 1; }

# --- Observability: metrics deltas and request-ID correlation -------
# A Prometheus sample's value, by exact name{labels} prefix (0 when
# the metric has not been registered or scraped into existence yet).
mval() {
  curl -fsS "http://127.0.0.1:$1/metrics" | grep -F "$2 " | awk '{print $2; exit}' || true
}

router_q_before=$(mval 7100 'router_http_requests_total{path="/query"}')
b7101_q_before=$(mval 7101 'xpath_http_requests_total{path="/query"}')
b7102_q_before=$(mval 7102 'xpath_http_requests_total{path="/query"}')

# One traced routed query, response headers captured for the minted
# X-Request-Id. ?trace=1 bypasses the answer cache, so the owning
# backend provably serves it.
out=$(curl -fsS -D "$bin/trace-headers" \
  'http://127.0.0.1:7100/query?doc=doc-0&q=count(//b)&trace=1')
echo "$out" | grep -q '"trace"' || { echo "?trace=1 returned no trace: $out" >&2; exit 1; }
echo "$out" | grep -q '"name": *"forward"' || { echo "router trace has no forward span: $out" >&2; exit 1; }
req_id=$(tr -d '\r' <"$bin/trace-headers" | awk 'tolower($1)=="x-request-id:" {print $2; exit}')
[ -n "$req_id" ] || { echo "router minted no X-Request-Id" >&2; exit 1; }
echo "$out" | grep -q "\"request_id\": *\"$req_id\"" \
  || { echo "trace does not carry the response's request id $req_id: $out" >&2; exit 1; }

# The owning backend is whichever node the response was tagged with.
owner_port=$(echo "$out" | grep -o '"node": *"127.0.0.1:[0-9]*"' | grep -o '710[0-9]' | head -1)
[ -n "$owner_port" ] || { echo "traced response has no node tag: $out" >&2; exit 1; }

# Counter deltas: exactly one more routed /query on the router, at
# least one more served /query on the owning backend.
router_q_after=$(mval 7100 'router_http_requests_total{path="/query"}')
owner_before=$b7101_q_before
[ "$owner_port" = 7102 ] && owner_before=$b7102_q_before
owner_after=$(mval "$owner_port" 'xpath_http_requests_total{path="/query"}')
[ "$((${router_q_after:-0} - ${router_q_before:-0}))" -eq 1 ] \
  || { echo "router /query counter delta != 1 ($router_q_before -> $router_q_after)" >&2; exit 1; }
[ "$((${owner_after:-0} - ${owner_before:-0}))" -ge 1 ] \
  || { echo "owning backend :$owner_port /query counter did not move ($owner_before -> $owner_after)" >&2; exit 1; }

# The scrape itself must be well-formed Prometheus text: every
# non-comment line is name{labels} value.
curl -fsS http://127.0.0.1:7100/metrics \
  | awk '!/^#/ && NF && $0 !~ /^[a-z][a-z0-9_]*({[^}]*})? [0-9eE+.-]+$/ {print; bad=1} END {exit bad}' \
  || { echo "router /metrics has malformed sample lines" >&2; exit 1; }

# One request ID correlates the tiers: the backend's slog line for the
# forwarded query carries the ID the router minted.
grep -q "request_id=$req_id" "$bin/backend-$owner_port.log" \
  || { echo "request id $req_id absent from backend :$owner_port log" >&2; exit 1; }
echo "observability: request $req_id traced through router and backend :$owner_port"

# Kill one backend mid-run: every document must keep answering —
# served from the replica on the survivor. The query strings are fresh
# so the answers provably come from a backend, not the router cache.
kill "$backend2_pid"
wait "$backend2_pid" 2>/dev/null || true
echo "killed backend :7102"
for i in $(seq 1 7); do
  out=$(curl -fsS "http://127.0.0.1:7100/query?doc=doc-$i&q=1%20%2B%20count(//b)")
  echo "$out" | grep -q '"number": *3' || { echo "doc-$i lost after backend kill: $out" >&2; exit 1; }
  echo "$out" | grep -q '"node": *"127.0.0.1:7101"' || { echo "doc-$i not served by the survivor: $out" >&2; exit 1; }
done
batch=$(curl -fsSN http://127.0.0.1:7100/batch \
  -d '{"docs":["doc-1","doc-2","doc-3"],"queries":["count(//b)"]}')
blines=$(echo "$batch" | grep -c '"index":' || true)
[ "$blines" -eq 3 ] || { echo "post-kill batch returned $blines lines, want 3:" >&2; echo "$batch" >&2; exit 1; }
echo "$batch" | grep -q '"error"' && { echo "post-kill batch carried errors:" >&2; echo "$batch" >&2; exit 1; }

# /stats with a down peer degrades instead of failing.
stats=$(curl -fsS http://127.0.0.1:7100/stats)
echo "$stats" | grep -q '"degraded": *true' || { echo "stats with a dead peer not flagged degraded" >&2; exit 1; }

echo "cluster smoke: OK ($lines batch lines across $nodes nodes; replica served all queries after backend kill)"
