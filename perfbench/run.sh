#!/bin/sh
# Build the benchmark and bin/repro.exe from source, then run it:
#
#   sh perfbench/run.sh --workload analyze_cold|serve_warm|serve_cold \
#     --seed N --seconds S --trace 0|1
#
# Run from the root of a checkout.  Build output goes to stderr; the last
# line of stdout is the JSON result.
set -e
if [ ! -f dune-project ] || [ ! -f bin/repro.ml ] || [ ! -d lib ]; then
  echo "perfbench: run from the root of a full checkout" >&2
  exit 2
fi
# Keep every build artefact inside the checkout (no shared dune cache).
export DUNE_CACHE=disabled
dune build --root . ./perfbench/perfbench.exe ./bin/repro.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
