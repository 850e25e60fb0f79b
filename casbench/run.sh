#!/usr/bin/env bash
# Build the benchmark from the sources of this checkout, then run it.
#
#   bash casbench/run.sh --workload W --seed N --seconds S --trace 0|1
#   bash casbench/run.sh --self-test
#
# Run from the root of the checkout. Build output goes to dune's _build
# directory there; the run writes its reports under casbench/out/.
set -u
# the shared dune cache lives outside the checkout: keep it off
if ! DUNE_CACHE=disabled dune build --root . ./casbench/main.exe 1>&2; then
  echo "casbench: build failed" >&2
  exit 1
fi
exec ./_build/default/casbench/main.exe "$@"
