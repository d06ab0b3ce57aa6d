#!/usr/bin/env bash
# Build the end-to-end benchmark, then run it:
#
#   bash e2ebench/run.sh --workload W --seed S --seconds N --trace 0|1
#   bash e2ebench/run.sh --compare BASE.jsonl NEW.jsonl
#
# Run it from the repository root.  Everything it builds or writes stays
# under that directory: the build in .bench_build, fleet workspaces and
# sampled spans in .bench_run.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "run.sh: run this from the repository root (dune-project and lib/ are missing here)" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi

build=.bench_build
mkdir -p "$build/tmp"
export TMPDIR="$PWD/$build/tmp"
DUNE_CACHE=disabled dune build --root . --build-dir "$build" ./e2ebench/e2e.exe 1>&2
exec "$build/default/e2ebench/e2e.exe" "$@"
