#!/bin/sh
# Benchmark regression gate.
#
#   sh scripts/bench_gate.sh BENCH_core.json BENCH_core.fresh.json
#
# Compares a fresh core-kernel run (bench/main.exe -- --quick --json)
# against the committed baseline.  Both files carry a calibration figure
# (a fixed pure-OCaml loop timed in the same process), so medians are
# compared after normalising by machine speed:
#
#   norm = (fresh_median / fresh_calibration) / (base_median / base_calibration)
#
# The gate fails only when a kernel's normalised median slows down by
# more than 1.5x — wide enough to ride out CI-runner noise, tight enough
# to catch a real hot-path regression.  It also enforces the floors that
# motivated the fast paths in the first place: tree_build and cv_curve
# must stay >= 2x faster than their Reference implementations, and
# march_replay (the simulator's TLB + data hierarchy) >= 1.25x, half the
# lowest of five measured runs (2.5-3.7x).  The ratios are intra-run, so
# they need no normalisation.
#
# POSIX sh + awk only; no jq.
set -eu

if [ $# -ne 2 ]; then
    echo "usage: $0 BASELINE.json FRESH.json" >&2
    exit 2
fi
base=$1
fresh=$2
[ -f "$base" ] || { echo "bench_gate: missing baseline file: $base" >&2; exit 2; }
[ -f "$fresh" ] || { echo "bench_gate: missing fresh file: $fresh" >&2; exit 2; }

awk -v tol=1.5 '
  BEGIN { minspd["tree_build"] = 2.0; minspd["cv_curve"] = 2.0; minspd["march_replay"] = 1.25 }
  FNR == 1 { nfile++ }
  /"calibration_ms"/ {
    v = $0
    sub(/.*"calibration_ms": */, "", v); sub(/,.*/, "", v)
    calib[nfile] = v + 0
  }
  /"name": / {
    line = $0
    name = line; sub(/.*"name": "/, "", name); sub(/".*/, "", name)
    med = line; sub(/.*"median_ms": */, "", med); sub(/,.*/, "", med)
    spd = line; sub(/.*"speedup_vs_ref": */, "", spd); sub(/[},].*/, "", spd)
    if (nfile == 1) { bmed[name] = med + 0; border[++bn] = name }
    else { fmed[name] = med + 0; fspd[name] = spd + 0 }
  }
  END {
    if (nfile != 2) { print "bench_gate: expected two input files"; exit 2 }
    if (bn == 0) { print "bench_gate: no kernels in baseline"; exit 2 }
    if (calib[1] <= 0 || calib[2] <= 0) { print "bench_gate: missing calibration_ms"; exit 2 }
    fail = 0
    printf "%-16s %12s %12s %10s %10s\n", "kernel", "base ms", "fresh ms", "norm", "vs ref"
    for (i = 1; i <= bn; i++) {
      n = border[i]
      if (!(n in fmed)) {
        printf "%-16s missing from fresh run: FAIL\n", n
        fail = 1
        continue
      }
      ratio = (fmed[n] / calib[2]) / (bmed[n] / calib[1])
      verdict = (ratio > tol) ? "SLOWDOWN" : "ok"
      if (ratio > tol) fail = 1
      printf "%-16s %12.3f %12.3f %9.2fx %9.2fx  %s\n", n, bmed[n], fmed[n], ratio, fspd[n], verdict
      if ((n in minspd) && fspd[n] < minspd[n]) {
        printf "%-16s speedup_vs_ref %.2fx below %.2fx floor: FAIL\n", n, fspd[n], minspd[n]
        fail = 1
      }
    }
    if (fail) { print "bench gate: FAIL"; exit 1 }
    printf "bench gate: PASS (<= %.1fx normalised median, speedup_vs_ref floors met)\n", tol
  }
' "$base" "$fresh"

# CI step summary: the same comparison as a markdown table when the
# workflow provides the file.  Re-parses both JSONs (the gate above
# already passed, so inputs are known-good).
if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
    awk '
      FNR == 1 { nfile++ }
      /"calibration_ms"/ {
        v = $0; sub(/.*"calibration_ms": */, "", v); sub(/,.*/, "", v)
        calib[nfile] = v + 0
      }
      /"name": / {
        line = $0
        name = line; sub(/.*"name": "/, "", name); sub(/".*/, "", name)
        med = line; sub(/.*"median_ms": */, "", med); sub(/,.*/, "", med)
        if (nfile == 1) { bmed[name] = med + 0; border[++bn] = name }
        else fmed[name] = med + 0
      }
      END {
        print "### Bench gate (calibration-normalised medians)"
        print ""
        print "| kernel | baseline ms | fresh ms | normalised |"
        print "|---|---|---|---|"
        for (i = 1; i <= bn; i++) {
          n = border[i]
          ratio = (fmed[n] / calib[2]) / (bmed[n] / calib[1])
          printf "| %s | %.3f | %.3f | %.2fx |\n", n, bmed[n], fmed[n], ratio
        }
        print ""
      }
    ' "$base" "$fresh" >> "$GITHUB_STEP_SUMMARY"
fi
