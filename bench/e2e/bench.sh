#!/usr/bin/env bash
# Build nisqd and the end-to-end benchmark from source, then run one
# measurement. Run from the repository root:
#
#   bash bench/e2e/bench.sh --workload W --seed S --seconds T --trace 0|1
#
# Build output goes to stderr, so the last line on stdout is the
# measurement's result JSON.
set -euo pipefail
dune build --root . --display quiet bin/nisqd.exe bench/e2e/e2e.exe >&2
exec ./_build/default/bench/e2e/e2e.exe measure "$@"
