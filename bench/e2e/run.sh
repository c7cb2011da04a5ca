#!/usr/bin/env bash
# Build the end-to-end benchmark from source and run it. Run from the
# repository root; all arguments go to the benchmark (see README.md
# next to this script).
set -euo pipefail
dune build --root . --display quiet bench/e2e/main.exe 1>&2
exec ./_build/default/bench/e2e/main.exe "$@"
