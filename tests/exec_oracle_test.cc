// Seeded ground-truth oracle for the executor: on random capability mixes,
// random feasible queries, random keyed fault schedules, and result-bounded
// (paged and non-paging) interfaces, every answer is checked against
// π_A σ_C R computed straight from the table:
//   - a complete answer (no completeness marker) equals it exactly;
//   - a marked answer is a subset of it, and every marker names a source
//     query of the plan on the bounded source whose true answer really does
//     hold more rows than the marker says were recovered;
//   - a failure carries a retryable code and happens only under a fault
//     schedule;
//   - the same seed replays identical ExecStats and source traffic.
//
// The fault side leans on FaultPolicy::keyed_schedule: every random-rate
// draw is a pure function of (seed, sub-query fingerprint, page offset,
// per-key attempt index), so the replay observes the exact same fault on
// every corresponding call. Each run builds its own identically seeded
// environment (same table, same capability, same injector seed).
//
// Runs under the ci.sh seed matrix via GENCOMPACT_TEST_SEED.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "exec/executor.h"
#include "exec/fault_policy.h"
#include "expr/condition_eval.h"
#include "planner/gen_compact.h"
#include "planner/source_handle.h"
#include "ssdl/description.h"
#include "workload/datasets.h"
#include "workload/random_capability.h"
#include "workload/random_condition.h"

namespace gencompact {
namespace {

uint64_t BaseSeed() {
  const char* env = std::getenv("GENCOMPACT_TEST_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 439;
}

Schema OracleSchema() {
  return Schema({{"s1", ValueType::kString},
                 {"s2", ValueType::kString},
                 {"n1", ValueType::kInt},
                 {"n2", ValueType::kInt}});
}

/// π_attrs σ_cond R, row by row from the table — no source, no executor.
RowSet DirectAnswer(const Table& table, const ConditionNode& cond,
                    const AttributeSet& attrs) {
  const Schema& schema = table.schema();
  const RowLayout full(schema.AllAttributes(), schema.num_attributes());
  const RowLayout projected(attrs, schema.num_attributes());
  RowSet out(projected);
  for (const Row& row : table.rows()) {
    const Result<bool> matches = EvalCondition(cond, row, full, schema);
    EXPECT_TRUE(matches.ok());
    if (matches.ok() && *matches) out.Insert(full.Project(row, projected));
  }
  return out;
}

// One execution environment: a random table behind a random capability,
// optionally result-bounded, optionally under a keyed fault schedule.
// Construction is a pure function of the config, so two instances built
// from the same config are indistinguishable — a run and its replay each
// get a private one.
struct OracleConfig {
  uint64_t seed = 0;
  // Result-bound shape: 0 = unbounded; otherwise rows per call.
  uint64_t result_bound = 0;
  bool supports_paging = false;
  uint64_t page_size = 0;
  uint64_t max_accesses = 0;
  // Keyed fault schedule (0 = fault-free).
  double transient_error_rate = 0.0;
};

struct OracleEnv {
  std::unique_ptr<Table> table;
  SourceDescription description{"src", OracleSchema()};
  std::unique_ptr<SourceHandle> handle;
  std::unique_ptr<Source> source;
  std::vector<AttributeDomain> domains;

  explicit OracleEnv(const OracleConfig& config) {
    Rng rng(config.seed);
    const Schema schema = OracleSchema();
    table = MakeRandomTable("src", schema, /*rows=*/200, /*string_pool=*/10,
                            /*value_range=*/40, &rng);
    description =
        RandomCapability("src", schema, RandomCapabilityOptions{}, &rng);
    if (config.result_bound > 0) {
      ResultBound bound;
      bound.result_bound = config.result_bound;
      bound.supports_paging = config.supports_paging;
      bound.page_size = config.page_size;
      bound.max_accesses = config.max_accesses;
      description.set_result_bound(bound);
    }
    handle = std::make_unique<SourceHandle>(description, table.get());
    source = std::make_unique<Source>(table.get(), &handle->description());
    if (config.transient_error_rate > 0) {
      FaultPolicy policy;
      policy.seed = config.seed * 2654435761ull + 1;
      policy.transient_error_rate = config.transient_error_rate;
      policy.keyed_schedule = true;
      source->set_fault_policy(policy);
    }
    domains = ExtractDomains(*table, /*max_samples=*/6, &rng);
  }
};

struct RunResult {
  bool planned = false;
  Result<RowSet> rows = Status::Internal("not run");
  ExecStats stats;
  size_t received = 0;
};

/// Plans `cond` with GenCompact, executes it on a FakeClock, and checks the
/// outcome against the oracle. `faulty` turns on retries (4 attempts, a
/// budget no schedule can exhaust) and partial paging prefixes.
RunResult RunChecked(const OracleConfig& config, const ConditionPtr& cond,
                     bool faulty, const std::string& label) {
  OracleEnv env(config);
  const AttributeSet attrs = env.handle->schema().AllAttributes();
  GenCompactPlanner planner(env.handle.get());
  const Result<PlanPtr> plan = planner.Plan(cond, attrs);
  RunResult run;
  if (!plan.ok()) return run;  // infeasible query: nothing to execute
  run.planned = true;
  FakeClock clock;
  ExecOptions options;
  options.clock = &clock;
  if (faulty) {
    options.retry.max_attempts = 4;
    options.retry.retry_budget = 1 << 20;
    options.partial_pages = true;
  }
  Executor executor(env.source.get(), /*pool=*/nullptr, options);
  run.rows = executor.Execute(**plan);
  run.stats = executor.stats();
  run.received = env.source->stats().queries_received;
  const std::string where = label + " on " + cond->ToString();

  if (!run.rows.ok()) {
    // Only an injected fault may fail an execution, and only retryably.
    EXPECT_TRUE(faulty) << where << ": " << run.rows.status().ToString();
    EXPECT_TRUE(IsRetryable(run.rows.status().code()))
        << where << ": " << run.rows.status().ToString();
    return run;
  }
  const RowSet truth = DirectAnswer(*env.table, *cond, attrs);
  for (const Row& row : run.rows->rows()) {
    EXPECT_TRUE(truth.Contains(row)) << where << ": a row outside the answer";
  }
  const std::vector<TruncationRecord> markers = executor.truncation_records();
  if (markers.empty()) {
    EXPECT_EQ(run.rows->size(), truth.size())
        << where << ": an unmarked answer must be exact";
    return run;
  }
  std::vector<const PlanNode*> queries;
  (*plan)->CollectSourceQueries(&queries);
  for (const TruncationRecord& marker : markers) {
    EXPECT_TRUE(env.handle->description().result_bound().bounded()) << where;
    EXPECT_EQ(marker.source, "src") << where;
    const PlanNode* named = nullptr;
    for (const PlanNode* query : queries) {
      if (SubQueryKey(*query->condition(), query->attrs()) == marker.key) {
        named = query;
      }
    }
    EXPECT_NE(named, nullptr)
        << where << ": marker names no source query of the plan: "
        << marker.sub_query;
    if (named == nullptr) continue;
    // The marker is honest: the sub-query's true answer is bigger than
    // what it says was recovered.
    EXPECT_GT(DirectAnswer(*env.table, *named->condition(), named->attrs())
                  .size(),
              marker.rows_lower_bound)
        << where << ": " << marker.sub_query;
  }
  return run;
}

/// Runs the case, then replays it from the same seed: the replay must match
/// event for event — same answer size, same ExecStats, same source traffic.
void ExpectOracle(const OracleConfig& config, const ConditionPtr& cond,
                  bool faulty, const std::string& label) {
  const RunResult first = RunChecked(config, cond, faulty, label);
  const RunResult replay = RunChecked(config, cond, faulty, label);
  ASSERT_EQ(first.planned, replay.planned);
  if (!first.planned) return;
  ASSERT_EQ(first.rows.ok(), replay.rows.ok()) << label;
  if (first.rows.ok()) {
    EXPECT_EQ(first.rows->size(), replay.rows->size()) << label;
  }
  const ExecStats& a = first.stats;
  const ExecStats& b = replay.stats;
  EXPECT_EQ(a.source_queries, b.source_queries) << label;
  EXPECT_EQ(a.rows_transferred, b.rows_transferred) << label;
  EXPECT_EQ(a.retries, b.retries) << label;
  EXPECT_EQ(a.failed_sub_queries, b.failed_sub_queries) << label;
  EXPECT_EQ(a.pages_fetched, b.pages_fetched) << label;
  EXPECT_EQ(a.truncated_sub_queries, b.truncated_sub_queries) << label;
  EXPECT_EQ(first.received, replay.received) << label;
}

class ExecOracleTest : public ::testing::TestWithParam<int> {
 protected:
  uint64_t CaseSeed() const {
    return BaseSeed() * 1000003ull +
           static_cast<uint64_t>(GetParam()) * 7919ull;
  }
};

TEST_P(ExecOracleTest, UnboundedFaultFree) {
  Rng rng(CaseSeed() + 17);
  for (int trial = 0; trial < 4; ++trial) {
    OracleConfig config;
    config.seed = CaseSeed() * 47 + static_cast<uint64_t>(trial);
    OracleEnv probe(config);  // domains for condition generation
    RandomConditionOptions cond_options;
    cond_options.num_atoms = 2 + rng.NextIndex(3);
    const ConditionPtr cond =
        RandomCondition(probe.domains, cond_options, &rng);
    ExpectOracle(config, cond, /*faulty=*/false, "unbounded/clean");
  }
}

TEST_P(ExecOracleTest, UnboundedKeyedFaults) {
  Rng rng(CaseSeed() + 29);
  for (int trial = 0; trial < 4; ++trial) {
    OracleConfig config;
    config.seed = CaseSeed() * 53 + static_cast<uint64_t>(trial);
    config.transient_error_rate = 0.2;
    OracleEnv probe(config);
    RandomConditionOptions cond_options;
    cond_options.num_atoms = 2 + rng.NextIndex(3);
    const ConditionPtr cond =
        RandomCondition(probe.domains, cond_options, &rng);
    ExpectOracle(config, cond, /*faulty=*/true, "unbounded/keyed-faults");
  }
}

TEST_P(ExecOracleTest, BoundedPagedSources) {
  Rng rng(CaseSeed() + 41);
  for (int trial = 0; trial < 3; ++trial) {
    OracleConfig config;
    config.seed = CaseSeed() * 59 + static_cast<uint64_t>(trial);
    config.result_bound = 16;
    config.supports_paging = true;
    config.page_size = 16;
    OracleEnv probe(config);
    RandomConditionOptions cond_options;
    cond_options.num_atoms = 2 + rng.NextIndex(3);
    const ConditionPtr cond =
        RandomCondition(probe.domains, cond_options, &rng);
    ExpectOracle(config, cond, /*faulty=*/false, "bounded/paged");
  }
}

TEST_P(ExecOracleTest, BoundedPagedSourcesUnderKeyedFaults) {
  Rng rng(CaseSeed() + 43);
  for (int trial = 0; trial < 3; ++trial) {
    OracleConfig config;
    config.seed = CaseSeed() * 61 + static_cast<uint64_t>(trial);
    config.result_bound = 16;
    config.supports_paging = true;
    config.page_size = 16;
    config.transient_error_rate = 0.15;
    OracleEnv probe(config);
    RandomConditionOptions cond_options;
    cond_options.num_atoms = 2 + rng.NextIndex(3);
    const ConditionPtr cond =
        RandomCondition(probe.domains, cond_options, &rng);
    ExpectOracle(config, cond, /*faulty=*/true, "bounded/paged/keyed-faults");
  }
}

TEST_P(ExecOracleTest, NonPagingBoundsMarkEveryTruncation) {
  Rng rng(CaseSeed() + 47);
  for (int trial = 0; trial < 3; ++trial) {
    OracleConfig config;
    config.seed = CaseSeed() * 67 + static_cast<uint64_t>(trial);
    // A tight bound with no paging: broad sub-queries truncate, and every
    // short answer must carry a marker that names the truncated query.
    config.result_bound = 12;
    config.supports_paging = false;
    OracleEnv probe(config);
    RandomConditionOptions cond_options;
    cond_options.num_atoms = 2 + rng.NextIndex(3);
    const ConditionPtr cond =
        RandomCondition(probe.domains, cond_options, &rng);
    ExpectOracle(config, cond, /*faulty=*/false, "bounded/non-paging");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecOracleTest, ::testing::Range(0, 10));

}  // namespace
}  // namespace gencompact
