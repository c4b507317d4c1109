#!/usr/bin/env bash
# The bench gates that read costs, counts or virtual time, never wall-clock
# speed, so they hold on any machine, loaded or not. Each bench exits
# non-zero when its gate fails and writes its BENCH_*.json to the current
# directory (run from the repo root to refresh the committed copies). Run by
# scripts/ci.sh and by the GitHub release job; the wall-clock gates (E13
# hedging, E14 Check memo, E15 scan, E18 async) stay in scripts/ci.sh.
#
#   E4  bench_pruning: for each query size, every PR1/PR2/PR3 ablation
#       reaches the same cost sum (pruning never loses the optimum). The 4-
#       and 6-atom queries are planned against sources without a download
#       form, so their optima are form-query plans, not the download.
#   E9  bench_join: the cost-chosen two-source plan and both forced edge
#       methods return the same answer, and the chosen plan's modeled cost
#       is no higher than any feasible forced variant's.
#   E17 bench_join: the DP enumerator's modeled cost lower-bounds the
#       greedy and left-deep baselines, all modes agree on the answer, and
#       every join's virtual time at 1 ms per round trip equals its tree's
#       round-trip depth (a leaf is 1, an independent edge max(l, r), a bind
#       edge l + 1).
#   E12 bench_fault_sweep: the tolerant leg (retries, which also arm the
#       avoid-set re-plan, plus a circuit breaker, which also arms load
#       shedding and the k1 health penalty) answers >= 99% of its queries at
#       every fault rate, and the two zero-fault cells send the same number
#       of source calls (FakeClock: the count columns are deterministic).
#   E16 bench_bounded: paged configurations recover the exact unbounded
#       answer and every short answer carries a truncation marker.
#
# Usage: scripts/bench_gates.sh <release-build-dir>
set -euo pipefail

BUILD="${1:?usage: scripts/bench_gates.sh <release-build-dir>}"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 2)"
cmake --build "${BUILD}" -j "${JOBS}" --target bench_pruning bench_join \
  bench_fault_sweep bench_bounded
for bench in bench_pruning bench_join bench_fault_sweep bench_bounded; do
  echo "--- ${bench} ---"
  "${BUILD}/bench/${bench}"
done
