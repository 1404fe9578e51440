#!/usr/bin/env bash
# Entry point of the end-to-end benchmark (the "command" of BENCHMARK.json).
# Run it from anywhere inside a source checkout:
#
#   bash bench/e2e/run.sh --workload impala_bulk_3m --seed 1 --seconds 15 --trace 0
#
# It builds xt_bench from the checkout's own sources into .bench_build at the
# checkout root (configured once; later runs only bring the build up to
# date), then runs it with the given arguments. Build output goes to stderr,
# so the last line on stdout is xt_bench's result line. Without src/ next to
# bench/ the configure step fails and the script exits non-zero. The
# compiler's temporary files stay inside .bench_build too.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build="$root/.bench_build"
export TMPDIR="$build/tmp"
mkdir -p "$TMPDIR"

if [[ ! -f "$build/Makefile" ]]; then
  cmake -S "$root/bench/e2e" -B "$build" -G "Unix Makefiles" >&2
fi
cmake --build "$build" -j "$(nproc)" --target xt_bench >&2
exec "$build/xt_bench" --out-dir "$build/runs" --bounds "$root/BENCHMARK.json" "$@"
