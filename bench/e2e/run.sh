#!/bin/sh
# Build the benchmark and the daemon it measures from this checkout, then
# run it with the given arguments, e.g.
#
#   sh bench/e2e/run.sh --workload read-fits --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build output stays in _build (dune's shared
# cache is disabled so nothing is written outside the checkout).
set -e
export DUNE_CACHE=disabled
dune build --root . ./bench/e2e/main.exe ./bin/bulletd.exe 1>&2
exec ./_build/default/bench/e2e/main.exe --bulletd ./_build/default/bin/bulletd.exe "$@"
