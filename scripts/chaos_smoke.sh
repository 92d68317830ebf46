#!/usr/bin/env bash
# chaos_smoke.sh — fault-injection smoke of the resilience layer: boots
# three xpathserve backends (one clean, one with injected /query
# latency, one that cuts its /batch stream mid-flight) behind an
# xpathrouter with replication, breakers, and the anti-entropy repair
# loop on. It asserts the routed surface absorbs the seeded faults
# (every /query answered, /batch delivers exactly one line per job
# through the mid-stream cut), then SIGKILLs a backend and asserts the
# queries keep answering from replicas while its circuit breaker opens
# (visible in xpathrouter_breaker_state and /health). A write issued
# while the owner is dead diverges the replica set; the backend is then
# restarted empty and the repair loop must re-copy its documents at the
# authoritative version with no manual reshard
# (xpathrouter_repair_copies_total moves, versions converge). Finally
# both a backend and the router take a SIGTERM and must drain: exit 0
# with in-flight work finished. CI runs this after the unit suites; it
# is also handy locally:
#
#   bash scripts/chaos_smoke.sh
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

# Backend A is clean; B answers /query 200ms late (inside the router's
# timeout — latency the retry path must tolerate, not a failure); C
# cuts its first /batch response after one line, exercising the
# one-line-per-job invariant of the merged stream.
"$bin/xpathserve" -addr 127.0.0.1:7201 2>"$bin/backend-7201.log" &
"$bin/xpathserve" -addr 127.0.0.1:7202 \
  -fault-spec 'latency:path=/query;d=200ms' -fault-seed 42 \
  2>"$bin/backend-7202.log" &
backendB_pid=$!
start_c() {
  "$bin/xpathserve" -addr 127.0.0.1:7203 "$@" 2>>"$bin/backend-7203.log" &
  backendC_pid=$!
}
start_c -fault-spec 'cut:path=/batch;after=1;times=1' -fault-seed 42

# Router: replication on, short health/breaker/repair periods so the
# chaos round trips fit a smoke run. The answer cache is off so every
# asserted answer provably crossed the wire; the retry budget is
# unlimited because this run is deliberately fault-dense.
"$bin/xpathrouter" -addr 127.0.0.1:7200 \
  -peers http://127.0.0.1:7201,http://127.0.0.1:7202,http://127.0.0.1:7203 \
  -replicas 1 -replica-retry 2 -timeout 3s \
  -health-interval 500ms -breaker-threshold 2 -breaker-cooldown 2s \
  -repair-interval 1s -retry-budget 0 -answer-cache 0 \
  2>"$bin/router.log" &
router_pid=$!

wait_for() {
  for _ in $(seq 1 50); do
    if curl -fsS "$1" >/dev/null 2>&1; then return 0; fi
    sleep 0.2
  done
  echo "timed out waiting for $1" >&2
  return 1
}
wait_for http://127.0.0.1:7201/healthz
wait_for http://127.0.0.1:7202/healthz
wait_for http://127.0.0.1:7203/healthz
wait_for http://127.0.0.1:7200/health

# A Prometheus sample's value, by exact name{labels} prefix (0 when the
# metric has not moved into existence yet).
mval() {
  curl -fsS "http://127.0.0.1:$1/metrics" | grep -v '^#' | grep -F "$2 " | awk '{print $2; exit}' || true
}

# Register 12 documents; FNV placement spreads them over all three
# backends, -replicas 1 mirrors each onto its ring successor.
for i in $(seq 0 11); do
  curl -fsS http://127.0.0.1:7200/documents \
    -d "{\"name\":\"doc-$i\",\"xml\":\"<a><b/><b/></a>\"}" >/dev/null
done

# Every routed query answers correctly — B's are simply 200ms late —
# and the node tags reveal each document's owner.
b_docs=""
c_docs=""
for i in $(seq 0 11); do
  out=$(curl -fsS "http://127.0.0.1:7200/query?doc=doc-$i&q=count(//b)")
  echo "$out" | grep -q '"number": *2' || { echo "bad routed query for doc-$i: $out" >&2; exit 1; }
  port=$(echo "$out" | grep -o '"node": *"127.0.0.1:720[1-3]"' | grep -o '720[1-3]' | head -1)
  [ "$port" = 7202 ] && b_docs="$b_docs doc-$i"
  [ "$port" = 7203 ] && c_docs="$c_docs doc-$i"
done
[ -n "$b_docs" ] || { echo "no document owned by backend :7202; placement changed?" >&2; exit 1; }
[ -n "$c_docs" ] || { echo "no document owned by backend :7203; placement changed?" >&2; exit 1; }
echo "owners: 7202 has$b_docs; 7203 has$c_docs"

# Grouped /batch through the mid-stream cut: C kills its stream after
# one line, the router must still deliver exactly one line per job
# (the cut group's unfinished jobs become typed error lines).
all_docs=$(seq 0 11 | sed 's/.*/"doc-&"/' | paste -sd, -)
batch=$(curl -fsSN http://127.0.0.1:7200/batch \
  -d "{\"docs\":[$all_docs],\"queries\":[\"count(//b)\",\"sum(//b) = 0\"]}")
lines=$(echo "$batch" | grep -c '"index":' || true)
[ "$lines" -eq 24 ] || { echo "cut batch returned $lines lines, want exactly 24:" >&2; echo "$batch" >&2; exit 1; }
echo "batch under mid-stream cut: 24/24 lines"

# The cut's trigger budget (times=1) is spent: the same batch now
# streams clean.
batch=$(curl -fsSN http://127.0.0.1:7200/batch \
  -d "{\"docs\":[$all_docs],\"queries\":[\"count(//b)\",\"sum(//b) = 0\"]}")
lines=$(echo "$batch" | grep -c '"index":' || true)
errs=$(echo "$batch" | grep -c '"error"' || true)
[ "$lines" -eq 24 ] && [ "$errs" -eq 0 ] \
  || { echo "post-cut batch: $lines lines, $errs errors, want 24/0:" >&2; echo "$batch" >&2; exit 1; }

# --- Breaker: SIGKILL C, queries fail over, its breaker opens --------
kill -9 "$backendC_pid"
wait "$backendC_pid" 2>/dev/null || true
echo "SIGKILLed backend :7203"
for d in $c_docs $c_docs $c_docs; do
  out=$(curl -fsS "http://127.0.0.1:7200/query?doc=$d&q=count(//b)")
  echo "$out" | grep -q '"number": *2' || { echo "$d lost after owner kill: $out" >&2; exit 1; }
done
breaker=""
for _ in $(seq 1 20); do
  breaker=$(mval 7200 'xpathrouter_breaker_state{peer="127.0.0.1:7203"}')
  [ "${breaker:-0}" = 2 ] && break
  curl -fsS "http://127.0.0.1:7200/query?doc=${c_docs##* }&q=count(//b)" >/dev/null
  sleep 0.3
done
[ "${breaker:-0}" = 2 ] \
  || { echo "breaker for :7203 never opened (state=$breaker)" >&2; exit 1; }
curl -fsS http://127.0.0.1:7200/health | grep -q '"breaker": *"open"' \
  || { echo "/health does not show the open breaker" >&2; exit 1; }
echo "breaker for :7203 open (gauge=2, /health agrees)"

# A write while the owner is dead: the registration diverts to the
# replica chain and bumps the version, diverging from whatever a
# revived owner would hold.
divergent=${c_docs##* }
curl -fsS http://127.0.0.1:7200/documents \
  -d "{\"name\":\"$divergent\",\"xml\":\"<a><b/><b/><b/></a>\"}" >/dev/null

# --- Repair: restart C empty; anti-entropy must re-copy its docs -----
start_c
wait_for http://127.0.0.1:7203/healthz
copies=""
for _ in $(seq 1 60); do
  copies=$(mval 7200 'xpathrouter_repair_copies_total')
  [ "${copies:-0}" -ge 1 ] && break
  sleep 0.5
done
[ "${copies:-0}" -ge 1 ] \
  || { echo "repair loop issued no copies after C's restart" >&2; exit 1; }

# Convergence: the divergent document must land on C at the authorit-
# ative (post-divergence) version, with the authoritative content.
ver=""
for _ in $(seq 1 60); do
  ver=$(curl -fsS "http://127.0.0.1:7203/documents?name=$divergent" 2>/dev/null \
    | grep -o '"version": *[0-9]*' | grep -o '[0-9]*$' | head -1)
  [ "${ver:-0}" -ge 2 ] && break
  sleep 0.5
done
[ "${ver:-0}" -ge 2 ] \
  || { echo "$divergent on revived :7203 at version ${ver:-none}, want >= 2 (repair convergence)" >&2; exit 1; }
out=$(curl -fsS "http://127.0.0.1:7200/query?doc=$divergent&q=count(//b)")
echo "$out" | grep -q '"number": *3' || { echo "post-repair content stale: $out" >&2; exit 1; }
echo "repair: $copies copies, $divergent converged at v$ver"

# The revived peer's breaker closes again once probes succeed.
breaker=""
for _ in $(seq 1 20); do
  breaker=$(mval 7200 'xpathrouter_breaker_state{peer="127.0.0.1:7203"}')
  [ "${breaker:-9}" = 0 ] && break
  sleep 0.3
done
[ "${breaker:-9}" = 0 ] \
  || { echo "breaker for revived :7203 never closed (state=$breaker)" >&2; exit 1; }

# --- Drain: SIGTERM must exit 0 with requests still answered ---------
# B's documents must survive its drain on a live replica. C came back
# empty and the repair loop re-copies one document at a time, so wait
# until every one of B's documents is held by A or C, not just until
# the first repair copy landed.
for d in $b_docs; do
  held=""
  for _ in $(seq 1 60); do
    if curl -fsS "http://127.0.0.1:7201/documents?name=$d" >/dev/null 2>&1 \
      || curl -fsS "http://127.0.0.1:7203/documents?name=$d" >/dev/null 2>&1; then
      held=1
      break
    fi
    sleep 0.5
  done
  [ -n "$held" ] || { echo "$d has no live replica besides :7202 before its drain" >&2; exit 1; }
done
kill -TERM "$backendB_pid"
if ! wait "$backendB_pid"; then
  echo "backend :7202 did not drain cleanly on SIGTERM" >&2
  exit 1
fi
echo "backend :7202 drained on SIGTERM"
for d in $b_docs; do
  out=$(curl -fsS "http://127.0.0.1:7200/query?doc=$d&q=count(//b)")
  echo "$out" | grep -q '"number"' || { echo "$d lost after owner drain: $out" >&2; exit 1; }
done

kill -TERM "$router_pid"
if ! wait "$router_pid"; then
  echo "router did not drain cleanly on SIGTERM" >&2
  exit 1
fi
echo "router drained on SIGTERM"

echo "chaos smoke: OK (faults absorbed, breaker cycle observed, repair converged, drains clean)"
