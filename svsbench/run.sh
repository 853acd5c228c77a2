#!/usr/bin/env bash
# Build the benchmark from source, then run it. Arguments pass through:
#
#   bash svsbench/run.sh --workload steady --seed 1 --seconds 25 --trace 0
#
# Run from the repository root. Build output goes to stderr; the last
# line of stdout is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
command -v dune > /dev/null 2>&1 || eval "$(opam env 2> /dev/null)"
dune build --root . ./svsbench/svsbench.exe 1>&2
exec ./_build/default/svsbench/svsbench.exe "$@"
