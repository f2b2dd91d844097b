# shellcheck shell=sh
# Shared skeleton of the serve-path smoke scripts (serve_smoke.sh,
# load_test.sh, soak_test.sh, cache_smoke.sh).  Sourced from the repo
# root, never run on its own.
#
# The sourcing script sets, before sourcing:
#   NAME           prefix of every message ("serve-smoke: ...")
#   OUT            directory for server logs and step outputs
#   STEP_TIMEOUT   seconds allowed per client step
#   DRAIN_TIMEOUT  seconds allowed for the server to exit after shutdown
#   SOCK           the server's Unix socket path ("" until known)
# and, after sourcing, may list more files for `fail` to dump in
# EXTRA_LOGS.
#
# Uses the built binary directly (not `dune exec`) so the background
# server and the foreground clients don't fight over the dune lock.

EXE=_build/default/bin/repro.exe
SERVER_PID=""
SERVER_LOG=server
EXTRA_LOGS=""

trap 'if [ -n "$SERVER_PID" ]; then kill "$SERVER_PID" 2>/dev/null || true; fi; rm -f "$SOCK"' EXIT

# Exit with a hint unless every named executable has been built.
require_built() {
    for f in "$@"; do
        [ -x "$f" ] || { echo "$NAME: $f not built (run dune build @all)" >&2; exit 1; }
    done
}

# Run a step under a bounded wall clock.  `timeout` is in coreutils and
# busybox; if some exotic host lacks it, run unbounded rather than skip
# the step.
bounded() {
    if command -v timeout > /dev/null 2>&1; then
        timeout "$STEP_TIMEOUT" "$@"
    else
        "$@"
    fi
}

# Fail with what the server said — a hung or crashed server is useless
# to debug from "cmp: EOF" — and kill it.
fail() {
    echo "$NAME: $1" >&2
    # shellcheck disable=SC2086  # EXTRA_LOGS is a word-split path list
    for f in "$OUT/$SERVER_LOG.out" "$OUT/$SERVER_LOG.err" $EXTRA_LOGS; do
        echo "$NAME: ---- ${f##*/} (tail) ----" >&2
        tail -n 40 "$f" >&2 2>/dev/null || true
    done
    if [ -n "$SERVER_PID" ]; then kill -9 "$SERVER_PID" 2>/dev/null || true; fi
    exit 1
}

# start_server LOG [serve flags...]: `repro serve --quick --socket
# $SOCK` in the background, logging to $OUT/LOG.out and $OUT/LOG.err.
start_server() {
    SERVER_LOG="$1"
    shift
    # Truncate the logs here: the background command's own redirections
    # run in the child, after this shell may already have read a stale
    # metrics port from the previous run's stderr.
    : > "$OUT/$SERVER_LOG.out"
    : > "$OUT/$SERVER_LOG.err"
    "$EXE" serve --quick --socket "$SOCK" "$@" \
        > "$OUT/$SERVER_LOG.out" 2> "$OUT/$SERVER_LOG.err" &
    SERVER_PID=$!
}

# Set MPORT to the OS-assigned metrics port the server reports on
# stderr, polling for up to 10s.  Returns 1 if the server dies first,
# 2 if the line never appears.
await_metrics_port() {
    MPORT=""
    waited=0
    while :; do
        MPORT=$(sed -n 's|.*metrics listening on http://127\.0\.0\.1:\([0-9]*\)/metrics.*|\1|p' \
            "$OUT/$SERVER_LOG.err" 2>/dev/null || true)
        [ -n "$MPORT" ] && return 0
        kill -0 "$SERVER_PID" 2>/dev/null || return 1
        [ "$waited" -ge 100 ] && return 2
        sleep 0.1
        waited=$((waited + 1))
    done
}

# The server must drain and exit 0 on its own within DRAIN_TIMEOUT of a
# shutdown request.  Poll instead of a bare `wait` so a wedged drain
# fails with diagnostics instead of hanging.  $1 prefixes the failure
# messages.
await_exit() {
    waited=0
    while kill -0 "$SERVER_PID" 2>/dev/null; do
        if [ "$waited" -ge "$DRAIN_TIMEOUT" ]; then
            fail "${1:-}server still running ${DRAIN_TIMEOUT}s after shutdown request"
        fi
        sleep 1
        waited=$((waited + 1))
    done
    wait "$SERVER_PID" || fail "${1:-}server exited non-zero"
    SERVER_PID=""
}

# Graceful shutdown: the shutdown request, then the drain wait.
stop_server() {
    bounded "$EXE" client --socket "$SOCK" shutdown > /dev/null \
      || fail "${1:-}client shutdown failed or timed out (${STEP_TIMEOUT}s)"
    await_exit "${1:-}"
}
