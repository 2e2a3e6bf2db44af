#!/usr/bin/env bash
# The full pre-merge gate: tier-0 static analysis (chainnet_lint), tier-1
# build + tests (which include the replay == interpreted parity suites on
# every forced ISA tier), a build and smoke run of the benchmark of record
# (perfbench/), a bench_infer parity smoke, then both sanitizer suites
# (scripts/check_asan.sh, scripts/check_tsan.sh).
#
# Usage: scripts/check_all.sh [extra ctest args...]
#
# Extra arguments are forwarded to every ctest invocation. Each stage uses
# its own build directory (build, build-asan, build-tsan), so incremental
# reruns are cheap. The tier-1 tree is configured with warnings-as-errors
# (CHAINNET_WERROR=ON); the option sticks in build/'s cache until turned
# off explicitly with -DCHAINNET_WERROR=OFF.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== tier 0: static analysis (chainnet_lint) =="
# The linter is built and run before anything else: rule violations in src/
# should fail the gate in seconds, not after a full compile. check_lint.sh
# runs the analyzer over src/ + tools/lint under a wall-clock budget, then
# the lint test suites (fixture corpus, analyzer unit tests, JSON golden).
scripts/check_lint.sh "$@"

echo
echo "== tier 1: build + ctest (build/) =="
cmake --build build -j "$(nproc)"
ctest --test-dir build --output-on-failure -j "$(nproc)" "$@"

echo
echo "== perfbench smoke (benchmark of record) =="
# perfbench/ compiles src/ itself into .bench_build/, outside the tier-1
# tree, so a src/ change that breaks it (say, deleting a public method it
# calls) would otherwise show up only when the benchmark runs. --smoke
# builds it and runs every workload briefly on shrunken inputs.
python3 perfbench/run.py --smoke

echo
echo "== bench_infer smoke (parity + rank-fidelity gates) =="
# bench_infer refuses to emit numbers unless plan replay reproduces the
# interpreted walk bit-for-bit at B=1 and in every lane of a B=32 replay,
# so a short run doubles as a parity check on the exact host ISA tier in
# use. The same run evaluates the reduced-precision tiers (f32, bf16
# storage) against the f64 oracle: pairwise rank agreement over sampled
# neighbor sets plus an SA objective-at-budget comparison, exiting nonzero
# if either falls past the committed thresholds — so a kernel or packing
# change that silently reorders placements fails here, not in production
# search.
CHAINNET_INFER_SECONDS=0.05 \
CHAINNET_INFER_OUT=build/BENCH_infer_smoke.json \
  ./build/bench/bench_infer

echo
echo "== bench_search smoke (population-search harness) =="
# A tiny fixed-wall-clock run of the src/search/ harness on the
# training-free approximation oracle: exercises every optimizer end to end
# (batch feeding, plan discipline, diagnostics) without training a model.
CHAINNET_SEARCH_SECONDS=0.1 \
CHAINNET_SEARCH_ORACLE=approx \
CHAINNET_SEARCH_PROBLEMS=1 \
CHAINNET_SEARCH_OUT=build/BENCH_search_smoke.json \
  ./build/bench/bench_search

echo
echo "== tier 2: AddressSanitizer + UBSan =="
scripts/check_asan.sh "$@"

echo
echo "== tier 2: ThreadSanitizer =="
scripts/check_tsan.sh "$@"

echo
echo "All checks passed."
