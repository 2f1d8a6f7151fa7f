#!/usr/bin/env bash
# Build the repository benchmark from source and run it.
#
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh suite|compare ...
#
# The first form is one measured run (perfbench/main.ml documents every
# subcommand).  Everything the script writes stays in the working tree:
# _build/ for dune, .perfbench/ for temporary files, stores, journals
# and result files.  The dune cache is off so nothing lands in $HOME.
set -euo pipefail
cd "$(dirname "$0")/.."
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)" || true
mkdir -p .perfbench/tmp
export TMPDIR="$PWD/.perfbench/tmp" DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe >&2
case "${1:-}" in
  run | suite | compare) exec ./_build/default/perfbench/main.exe "$@" ;;
  *) exec ./_build/default/perfbench/main.exe run "$@" ;;
esac
