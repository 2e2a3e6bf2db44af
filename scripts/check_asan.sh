#!/usr/bin/env bash
# Build the tensor/gnn test suites under AddressSanitizer + UBSan and run
# them.
#
# Usage: scripts/check_asan.sh [extra ctest args...]
#
# Uses the "asan-ubsan" presets (build dir: build-asan); CMakePresets.json
# holds the build-target list and the test filter, so
# `ctest --preset asan-ubsan` runs exactly this gate. The filter covers the
# arena-tape substrate and everything layered on it — autodiff ops,
# modules, optimizers, serialization, ChainNet and the baselines, gradient
# checks, the fast-inference equivalence suite, and the trainer — the code
# where a bump-allocator bug (stale buffer, out-of-bounds scatter,
# use-after-release) would surface. It also covers the untrusted-input
# paths (JSON parser, serve protocol + loopback hostile requests, and the
# front-end contract suite's malformed and truncated frames), where UBSan
# catches things like float-to-int casts of client-chosen values.
# plan_test joins because plan replay indexes a single arena-planned
# scratch buffer with precomputed offsets — exactly the kind of code where
# an off-by-one region size becomes an out-of-bounds write. kernels_f32_test
# joins for the reduced-precision tier (f32 packing caches + tile scratch
# share the f64 tier's buffer-reuse idioms), and f64_golden_test keeps the
# double-precision goldens honest under instrumentation. The linter recurses
# over directories and slices raw bytes out of source files, so it gets an
# ASan pass over both src/ and the fixture corpus (lint_test drives it over
# every fixture, including the failing ones). annealing_test and
# parallel_anneal_test cover the paper's SA: one trial, the serial
# multi-trial and time-budget drivers, and the pool-parallel trials.
set -euo pipefail

cd "$(dirname "$0")/.."

cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j "$(nproc)"
ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1:detect_leaks=1}" \
UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}" \
  ctest --preset asan-ubsan "$@"

echo "ASan+UBSan check passed."
