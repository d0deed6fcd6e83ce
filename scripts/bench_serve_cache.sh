#!/usr/bin/env sh
# Cache hit-vs-miss latency for `baton serve` on the smoke model.
#
# Starts the release server on an ephemeral port, times one cold `POST
# /map` (cache miss: runs the C3P search) and the best of five identical
# warm requests (cache hit: canonical-key lookup, byte-identical bytes
# back), then the median of 20 identical cached requests sent back to back
# by one curl on one keep-alive connection (a response that waits on a TCP
# timer shows up there, not on fresh connections). It checks the hits
# really were served by the cache via /metrics, then drains the server
# through /quitquitquit and verifies it exits 0.
#
# Usage: scripts/bench_serve_cache.sh [out.json]
#   BATON_BIN  override the binary under test (default ./target/release/baton)
#
# Output JSON is gated in CI: speedup must be >= 10 and keepalive_hit_s
# below 0.005.
set -eu

BIN=${BATON_BIN:-./target/release/baton}
OUT=${1:-BENCH_serve_cache.json}
LOG=$(mktemp)

"$BIN" serve --addr 127.0.0.1:0 >"$LOG" 2>/dev/null &
PID=$!
trap 'kill "$PID" 2>/dev/null || true; rm -f "$LOG"' EXIT

ADDR=""
for _ in $(seq 1 100); do
  ADDR=$(sed -n 's#^listening on http://##p' "$LOG")
  [ -n "$ADDR" ] && break
  sleep 0.1
done
[ -n "$ADDR" ] || { echo "error: server never announced its address" >&2; exit 1; }

READY=""
for _ in $(seq 1 120); do
  if curl -fsS "http://$ADDR/readyz" >/dev/null 2>&1; then READY=1; break; fi
  sleep 1
done
[ -n "$READY" ] || { echo "error: server never became ready" >&2; exit 1; }

BODY='{"model": "alexnet", "config": {"layer": 0}}'

# Cold: the canonical key is new, the full search runs.
miss=$(curl -fsS -o /dev/null -w '%{time_total}' -X POST "http://$ADDR/map" -d "$BODY")

# Warm: same canonical request; best-of-5 is the steady state a client sees.
hit=""
for _ in 1 2 3 4 5; do
  t=$(curl -fsS -o /dev/null -w '%{time_total}' -X POST "http://$ADDR/map" -d "$BODY")
  if [ -z "$hit" ] || awk "BEGIN{exit !($t < $hit)}"; then hit=$t; fi
done

# Keep-alive: one curl, 20 transfers of the same cached request, one
# connection. Each output line is "<time_total> <new connections>".
set --
for _ in $(seq 1 20); do set -- "$@" -o /dev/null "http://$ADDR/map"; done
times=$(curl -fsS -X POST -d "$BODY" -w '%{time_total} %{num_connects}\n' "$@")
connects=$(printf '%s\n' "$times" | awk '{n += $2} END {print n}')
[ "$connects" -eq 1 ] || { echo "error: keep-alive run opened $connects connections, expected 1" >&2; exit 1; }
keepalive=$(printf '%s\n' "$times" | awk '{print $1}' | sort -g \
  | awk '{t[NR] = $1} END {printf "%.6f", (t[NR / 2] + t[NR / 2 + 1]) / 2}')

# The warm requests must actually have been cache hits.
hits=$(curl -fsS "http://$ADDR/metrics" | sed -n 's/^baton_response_cache_hits_total //p')
[ "${hits:-0}" -ge 25 ] || { echo "error: expected >=25 cache hits, got ${hits:-0}" >&2; exit 1; }

speedup=$(awk "BEGIN{printf \"%.1f\", $miss / $hit}")

# Graceful drain: the server must finish in-flight work and exit 0.
curl -fsS -X POST "http://$ADDR/quitquitquit" >/dev/null
if ! wait "$PID"; then
  echo "error: server did not exit 0 after /quitquitquit" >&2
  exit 1
fi
trap 'rm -f "$LOG"' EXIT

cat >"$OUT" <<EOF
{
  "bench": "serve_cache",
  "model": "alexnet",
  "endpoint": "/map",
  "miss_seconds": $miss,
  "hit_seconds": $hit,
  "speedup": $speedup,
  "keepalive_hit_s": $keepalive
}
EOF
echo "miss ${miss}s, hit ${hit}s, speedup ${speedup}x, keep-alive hit ${keepalive}s -> $OUT"
