#!/bin/sh
# Concurrent-load smoke test, gated as `make load-smoke` and in CI.
#
# Two phases against a real `repro serve` process, both driven by the
# bench loadgen (`bench/main.exe -- --load`), which forks N client
# processes, byte-compares every successful response against the first
# one that client saw for the same request, and exits non-zero on any
# lost or mismatched response:
#
#   1. open admission: every request must be served — zero refusals,
#      zero lost, zero mismatched;
#   2. rate-limited admission (--rate-burst 2, effectively no refill):
#      each connection gets two heavy admits and typed `rate_limited`
#      refusals after that — refusals MUST appear, and responses must
#      still be complete and byte-stable.
#
# Knobs (also used by the CI matrix):
#   LOAD_EVLOOP   epoll|select  evloop backend (default: runtime best)
#   LOAD_SHARDS   N             --io-shards for the server (default 4)
#   LOAD_CLIENTS  N             concurrent client processes (default 8)
#   LOAD_REQUESTS M             requests per client (default 60)
set -eu

NAME=load-smoke
BENCH=_build/default/bench/main.exe
OUT=_build/load-smoke
STEP_TIMEOUT="${LOAD_SMOKE_TIMEOUT:-180}"
DRAIN_TIMEOUT="${LOAD_SMOKE_DRAIN:-30}"
SHARDS="${LOAD_SHARDS:-4}"
CLIENTS="${LOAD_CLIENTS:-8}"
REQUESTS="${LOAD_REQUESTS:-60}"
SOCK=""   # one per phase, set in run_phase

# shellcheck source=scripts/serve_lib.sh
. scripts/serve_lib.sh
EXTRA_LOGS="$OUT/loadgen.out"

EVLOOP_ARGS=""
[ -n "${LOAD_EVLOOP:-}" ] && EVLOOP_ARGS="--evloop ${LOAD_EVLOOP}"

require_built "$EXE" "$BENCH"
mkdir -p "$OUT"

# run_phase <name> <expected-refusals: zero|some> [extra serve flags...]
run_phase() {
    PHASE="$1"; REFUSALS="$2"; shift 2
    SOCK="${TMPDIR:-/tmp}/repro-load-$$-$PHASE.sock"
    rm -f "$SOCK"
    # shellcheck disable=SC2086  # EVLOOP_ARGS is intentionally word-split
    start_server server --jobs 2 --io-shards "$SHARDS" $EVLOOP_ARGS "$@"

    # Readiness probe outside the measured load.
    bounded "$EXE" client --wait --socket "$SOCK" health > /dev/null \
      || fail "$PHASE: server did not come up"

    bounded "$BENCH" --load --socket "$SOCK" \
        --clients "$CLIENTS" --requests "$REQUESTS" > "$OUT/loadgen.out" \
      || fail "$PHASE: lost or mismatched responses under load"
    cat "$OUT/loadgen.out"

    case "$REFUSALS" in
        zero)
            grep -q "refused=0 " "$OUT/loadgen.out" \
              || fail "$PHASE: unexpected refusals with admission off" ;;
        some)
            grep -q "refused=0 " "$OUT/loadgen.out" \
              && fail "$PHASE: rate limiting produced no typed refusals" ;;
    esac

    stop_server "$PHASE: "
    rm -f "$SOCK"
}

run_phase open zero
run_phase limited some --rate-burst 2 --rate-every 1000000

echo "load-smoke: ${CLIENTS}x${REQUESTS} clean under open and rate-limited admission (shards=$SHARDS${LOAD_EVLOOP:+, evloop=$LOAD_EVLOOP})"
