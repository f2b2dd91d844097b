#!/bin/sh
# End-to-end serving smoke test, gated in `make check` and CI.
#
# Starts `repro serve` on a temp Unix socket, runs a client analyze +
# stats + graceful shutdown against it, and `cmp`s the served analyze
# response against the offline `repro analyze` output for the same
# configuration — the byte-equality guarantee DESIGN.md §11 argues for.
# The HTTP operational endpoint rides along: the server runs with
# --metrics-port 0, GET /metrics must pass scripts/check_metrics.sh,
# GET /health must answer 200 and unknown paths 404.
#
# Every step is bounded: client calls run under `timeout` (when the
# platform has it) and the final server drain is a polled wait, so a
# wedged server fails the smoke with diagnostics instead of hanging CI
# until the job-level kill.
#
# SERVE_EVLOOP (epoll|select) and SERVE_SHARDS (N) select the evloop
# backend and IO shard count — the CI matrix runs this smoke under both
# backends; byte-equality against the offline CLI must hold under all.
set -eu

NAME=serve-smoke
OUT=_build/serve-smoke
SOCK="${TMPDIR:-/tmp}/repro-smoke-$$.sock"
STEP_TIMEOUT="${SERVE_SMOKE_TIMEOUT:-120}"   # seconds per client step
DRAIN_TIMEOUT="${SERVE_SMOKE_DRAIN:-30}"     # seconds for server exit after shutdown
SHARDS="${SERVE_SHARDS:-1}"

# shellcheck source=scripts/serve_lib.sh
. scripts/serve_lib.sh

EVLOOP_ARGS=""
[ -n "${SERVE_EVLOOP:-}" ] && EVLOOP_ARGS="--evloop ${SERVE_EVLOOP}"

require_built "$EXE"
mkdir -p "$OUT"
rm -f "$SOCK"

# shellcheck disable=SC2086  # EVLOOP_ARGS is intentionally word-split
start_server server --jobs 2 --io-shards "$SHARDS" --metrics-port 0 $EVLOOP_ARGS

# --wait retries while the server is still binding the socket.
bounded "$EXE" client --wait --socket "$SOCK" analyze gcc > "$OUT/served-analyze.out" \
  || fail "client analyze failed or timed out (${STEP_TIMEOUT}s)"
bounded "$EXE" client --socket "$SOCK" stats > "$OUT/stats.out" \
  || fail "client stats failed or timed out (${STEP_TIMEOUT}s)"
grep -q "requests.total" "$OUT/stats.out" \
  || fail "stats response missing requests.total"

# Operational endpoint: /metrics must pass the exposition lint,
# /health must answer 200 while serving, unknown paths 404.  Skipped
# (with a note) only if the host has no curl.
if command -v curl > /dev/null 2>&1; then
    await_metrics_port || fail "no 'metrics listening' line on server stderr"
    curl -s "http://127.0.0.1:$MPORT/metrics" > "$OUT/metrics.txt" \
      || fail "GET /metrics failed"
    sh scripts/check_metrics.sh "$OUT/metrics.txt" \
      || fail "/metrics fails the exposition lint"
    grep -q '^repro_requests_total ' "$OUT/metrics.txt" \
      || fail "/metrics missing repro_requests_total"
    code=$(curl -s -o /dev/null -w '%{http_code}' "http://127.0.0.1:$MPORT/health" || true)
    [ "$code" = "200" ] || fail "/health returned $code while serving (want 200)"
    code=$(curl -s -o /dev/null -w '%{http_code}' "http://127.0.0.1:$MPORT/nope" || true)
    [ "$code" = "404" ] || fail "unknown path returned $code (want 404)"
else
    echo "serve-smoke: curl not found; skipping HTTP endpoint checks" >&2
fi

# `repro serve --status` renders the same snapshot without serving.
bounded "$EXE" serve --status --socket "$SOCK" > "$OUT/status.out" \
  || fail "serve --status failed or timed out (${STEP_TIMEOUT}s)"
grep -q "serve metrics" "$OUT/status.out" \
  || fail "serve --status did not render metrics"

# Graceful shutdown: the server must drain and exit 0 on its own within
# the drain budget.
stop_server

# The served report must be byte-identical to the offline CLI at the
# same analysis configuration (jobs is excluded from the cache key and
# must not affect output).
JOBS=1 "$EXE" analyze --quick gcc > "$OUT/offline-analyze.out"
cmp "$OUT/served-analyze.out" "$OUT/offline-analyze.out" \
  || fail "served analyze differs from offline analyze"

echo "serve-smoke: served analyze byte-identical to offline analyze"
