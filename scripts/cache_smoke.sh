#!/bin/sh
# Warm-restart equivalence gate for the persistent result store, run in
# `make check` and CI.
#
# Round 1: serve with an empty --store, analyze a workload (a compute
# miss that must be persisted), shut down.  Round 2: restart on the same
# store and analyze the same workload — the response must come from the
# warmed cache (stats show store hits and zero analysis-cache misses,
# i.e. zero recomputes) and be byte-identical to round 1 and to the
# offline CLI.  Finally `repro cache verify` must pass over the store
# the two servers produced.
set -eu

NAME=cache-smoke
OUT=_build/cache-smoke
SOCK="${TMPDIR:-/tmp}/repro-cache-smoke-$$.sock"
STORE="$OUT/store"
STEP_TIMEOUT="${SERVE_SMOKE_TIMEOUT:-120}"   # seconds per client step
DRAIN_TIMEOUT="${SERVE_SMOKE_DRAIN:-30}"     # seconds for server exit after shutdown

# shellcheck source=scripts/serve_lib.sh
. scripts/serve_lib.sh

require_built "$EXE"
rm -rf "$OUT"
mkdir -p "$OUT"
rm -f "$SOCK"

# A stats metric, by exact key, from a rendered snapshot.
metric() {
    awk -v key="$2" '$1 == key { print $2 }' "$1"
}

# ---- round 1: cold store ------------------------------------------------
start_server server1 --jobs 2 --store "$STORE"
bounded "$EXE" client --wait --socket "$SOCK" analyze gcc > "$OUT/analyze1.out" \
  || fail "round 1 analyze failed or timed out (${STEP_TIMEOUT}s)"
bounded "$EXE" client --socket "$SOCK" stats > "$OUT/stats1.out" \
  || fail "round 1 stats failed or timed out (${STEP_TIMEOUT}s)"
stop_server

writes=$(metric "$OUT/stats1.out" store.writes)
[ "${writes:-0}" -ge 1 ] || fail "round 1 persisted nothing (store.writes=$writes)"

# ---- round 2: warm restart ---------------------------------------------
start_server server2 --jobs 2 --store "$STORE"
bounded "$EXE" client --wait --socket "$SOCK" analyze gcc > "$OUT/analyze2.out" \
  || fail "round 2 analyze failed or timed out (${STEP_TIMEOUT}s)"
bounded "$EXE" client --socket "$SOCK" stats > "$OUT/stats2.out" \
  || fail "round 2 stats failed or timed out (${STEP_TIMEOUT}s)"
stop_server

grep -q "warmed 1 cached analyses" "$OUT/server2.err" \
  || fail "restarted server did not warm from the store"
hits=$(metric "$OUT/stats2.out" store.hits)
[ "${hits:-0}" -ge 1 ] || fail "warm restart read nothing from the store (store.hits=$hits)"
misses=$(metric "$OUT/stats2.out" cache.misses)
[ "${misses:-1}" -eq 0 ] || fail "warm restart recomputed an analysis (cache.misses=$misses)"
corrupt=$(metric "$OUT/stats2.out" store.corrupt)
[ "${corrupt:-1}" -eq 0 ] || fail "store reported corrupt entries (store.corrupt=$corrupt)"

# ---- byte identity ------------------------------------------------------
cmp "$OUT/analyze1.out" "$OUT/analyze2.out" \
  || fail "warm-restart response differs from cold response"
JOBS=1 "$EXE" analyze --quick gcc > "$OUT/offline.out"
cmp "$OUT/analyze2.out" "$OUT/offline.out" \
  || fail "served response differs from offline analyze"

# ---- store self-check ---------------------------------------------------
"$EXE" cache verify --dir "$STORE" > "$OUT/verify.out" \
  || fail "cache verify failed over the smoke store"

echo "cache-smoke: warm restart byte-identical, served from disk, zero recomputes"
