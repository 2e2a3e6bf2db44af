#!/usr/bin/env bash
# Build the concurrent-runtime tests under ThreadSanitizer and run them.
#
# Usage: scripts/check_tsan.sh [extra ctest args...]
#
# Uses the "tsan" presets (build dir: build-tsan); CMakePresets.json holds
# the build-target list and the test filter, so `ctest --preset tsan` runs
# exactly this gate. Only the runtime and serving tests are built and run --
# they exercise every lock and atomic in src/runtime and src/serve (accept
# loop, session threads, flusher, metrics) plus the parallel SA drivers and
# the batched GNN forward's fan-out across pool workers
# (chainnet_batch_test covers the kernels' thread-local packing scratch);
# building the whole tree under TSan would be slow and adds no coverage.
# registry_test and router_test join the gate because they are the
# concurrency-heavy scale-out paths: hot-swap atomicity under a concurrent
# reader, and the router's health thread racing request dispatch and the
# metrics endpoint. frontend_contract_test drives the connection core both
# front ends share (serve/listener.h) through hostile peers, stop() under
# load, and accept() running out of fds. plan_test runs here for the
# PlanCache: concurrent first lookups of one key must produce exactly one
# compile under the shard lock, and replay through a shared read-only plan
# must stay race-free across pool workers. search_test runs the population
# optimizers, whose every step fans a width-K batch across the pool while
# the driver thread owns all the RNG state; parallel_anneal_test and
# annealing_test run SA's trials on pool workers and on the caller. kernels_f32_test and
# f64_golden_test join because the reduced-precision tier adds its own
# thread-local tile scratch and once-per-process ISA/dtype resolution --
# the same publication patterns TSan is here to police. chainnet_lint is
# single-threaded, but running lint_test here keeps the lock-discipline
# rules themselves green in the same gate that exercises the locks they
# reason about.
set -euo pipefail

cd "$(dirname "$0")/.."

cmake --preset tsan
cmake --build --preset tsan -j "$(nproc)"
TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" ctest --preset tsan "$@"

echo "TSan check passed."
