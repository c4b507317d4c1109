#!/usr/bin/env bash
# CI entry point: Release build with -Werror + full test suite, then the
# seeded differential harness replayed over a small seed matrix (the default
# 439 that gates commits plus four fresh bases — GENCOMPACT_TEST_SEED
# reseeds the random capability/query generators, so each base is a
# brand-new set of planner-equivalence, plan-template reuse (a warm
# template's plan against a fresh handle's), Choice-resolution, Check-oracle,
# scan data-plane ground-truth (ScanTable and FilterRows against a per-row
# EvalCondition walk, rows and order), bounded-source paging/truncation,
# join-order-enumeration oracle, multi-source federation
# answer-equivalence, executor-vs-ground-truth oracle cases, and the
# federation walk's tie-break sweep over completion orders), then the
# whole test binary under ThreadSanitizer and under AddressSanitizer (+UBSan;
# the interner's weak-entry pool must hold nothing alive: leak check).
#
# Usage: scripts/ci.sh [build-dir-prefix]
set -euo pipefail

cd "$(dirname "$0")/.."
PREFIX="${1:-build-ci}"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 2)"

echo "=== Release build (-Werror) + full ctest ==="
cmake -B "${PREFIX}-release" -S . -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS=-Werror
cmake --build "${PREFIX}-release" -j "${JOBS}"
ctest --test-dir "${PREFIX}-release" --output-on-failure -j "${JOBS}"

echo "=== Differential harness seed matrix ==="
scripts/seed_matrix.sh "${PREFIX}-release"

echo "=== ThreadSanitizer build + whole test binary ==="
cmake -B "${PREFIX}-tsan" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DGENCOMPACT_SANITIZE=thread
cmake --build "${PREFIX}-tsan" -j "${JOBS}" --target gencompact_tests
"${PREFIX}-tsan/tests/gencompact_tests" --gtest_brief=1

echo "=== AddressSanitizer build + whole test binary ==="
cmake -B "${PREFIX}-asan" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DGENCOMPACT_SANITIZE=address
cmake --build "${PREFIX}-asan" -j "${JOBS}" --target gencompact_tests
"${PREFIX}-asan/tests/gencompact_tests" --gtest_brief=1

echo "=== Pruning bench gate (writes BENCH_pruning.json) ==="
# E4: exits non-zero unless, for each query size, all five PR1/PR2/PR3
# ablation configurations reach the same cost sum (pruning never loses the
# optimum). The 4- and 6-atom queries are planned against sources without
# a download form, so their optima are form-query plans, not the download.
cmake --build "${PREFIX}-release" -j "${JOBS}" --target bench_pruning
"${PREFIX}-release/bench/bench_pruning"

echo "=== Fault-sweep bench smoke (writes BENCH_fault.json) ==="
# E12: exits non-zero unless the tolerant leg (retries, which also arm the
# avoid-set re-plan, plus a circuit breaker, which also arms load shedding
# and the k1 health penalty) answers >= 99% of its queries at every fault
# rate, and the two zero-fault cells send the same number of source calls.
cmake --build "${PREFIX}-release" -j "${JOBS}" --target bench_fault_sweep
"${PREFIX}-release/bench/bench_fault_sweep"

echo "=== Hedging bench smoke (writes BENCH_hedge.json) ==="
# E13: exits non-zero unless hedging cuts p99 >= 2x at 5% stragglers for
# <= 10% extra source calls.
cmake --build "${PREFIX}-release" -j "${JOBS}" --target bench_hedging
"${PREFIX}-release/bench/bench_hedging"

echo "=== Check-memo bench smoke (writes BENCH_checkmemo.json) ==="
cmake --build "${PREFIX}-release" -j "${JOBS}" --target bench_check
# The empty filter skips the E6 microbenchmarks; E14 (recurring shapes with
# fresh constants, cold vs warm, and Examples 1.2 and 1.1 with fresh
# constants, cold handle vs template hit) always runs and exits non-zero
# unless warm planning is >= 2x faster than cold on the stream and >= 20x
# on each example.
"${PREFIX}-release/bench/bench_check" --benchmark_filter='^$'

echo "=== Scan bench smoke (writes BENCH_scan.json) ==="
# E15: exits non-zero unless ScanTable (mirror filter, dedup on row ids,
# then build only the first occurrences) returns the in-bench reference row
# walk's rows and RowSet order on every workload and is >= 4x the reference
# on large-transfer (duplicate-heavy), >= 0.95x on download-all (every row
# unique), >= 5x on selective and >= 8x on list-field (Example 1.2's
# source-query shape).
cmake --build "${PREFIX}-release" -j "${JOBS}" --target bench_scan
"${PREFIX}-release/bench/bench_scan"

echo "=== Bounded bench smoke (writes BENCH_bounded.json) ==="
# E16: exits non-zero unless paged configurations recover the exact
# unbounded answer and every short answer carries a truncation marker.
cmake --build "${PREFIX}-release" -j "${JOBS}" --target bench_bounded
"${PREFIX}-release/bench/bench_bounded"

echo "=== Join bench smoke (writes BENCH_join.json) ==="
# E9: exits non-zero unless the cost-chosen two-source plan and both forced
# edge methods return the same answer and the chosen plan's modeled cost is
# no higher than any feasible forced variant's. E17: exits non-zero unless
# the DP enumerator's modeled cost lower-bounds the greedy and left-deep
# baselines, all modes agree on the answer, and every join's virtual time
# at 1 ms per round trip equals its tree's round-trip depth (the critical-
# path gate: a leaf is 1, an independent edge max(l, r), a bind edge l + 1).
cmake --build "${PREFIX}-release" -j "${JOBS}" --target bench_join
"${PREFIX}-release/bench/bench_join"

echo "=== Async bench smoke (writes BENCH_async.json) ==="
# E18: exits non-zero unless one async submitter holds >= 4x as many
# transfers in flight as there are blocking clients (or reaches >= 4x their
# throughput) and admission keeps p99 time-to-answer bounded under overload.
cmake --build "${PREFIX}-release" -j "${JOBS}" --target bench_async
"${PREFIX}-release/bench/bench_async"

echo "=== CI OK ==="
