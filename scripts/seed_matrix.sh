#!/usr/bin/env bash
# The differential harness seed matrix: replays the seeded oracles and
# fuzzers of a built test binary over the default seed 439 and four fresh
# bases. GENCOMPACT_TEST_SEED reseeds the random capability, condition,
# data and fault-schedule generators, so each base is a brand-new set of
# cases. Run by scripts/ci.sh and by the GitHub release job.
#
# Usage: scripts/seed_matrix.sh <release-build-dir>
set -euo pipefail

BUILD="${1:?usage: scripts/seed_matrix.sh <release-build-dir>}"
for seed in 439 1009 2027 4391 9001; do
  echo "--- GENCOMPACT_TEST_SEED=${seed} ---"
  GENCOMPACT_TEST_SEED="${seed}" \
    "${BUILD}/tests/gencompact_tests" \
    --gtest_filter='Seeds/DifferentialTest*:Seeds/TemplateTest*:Seeds/CheckOracleTest*:Seeds/BatchParityTest*:BoundedFuzzTest*:JoinEnum*:JoinFuzzTest*:Seeds/ExecOracleTest*:FederationInterleavingTest*' \
    --gtest_brief=1
done
