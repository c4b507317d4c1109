#include <gtest/gtest.h>

#include <chrono>

#include "common/clock.h"
#include "common/thread_pool.h"
#include "exec/executor.h"
#include "expr/condition_eval.h"
#include "expr/condition_parser.h"
#include "planner/planner.h"
#include "ssdl/ssdl_parser.h"
#include "workload/datasets.h"
#include "workload/random_capability.h"
#include "workload/random_condition.h"

namespace gencompact {
namespace {

ConditionPtr Parse(const std::string& text) {
  Result<ConditionPtr> cond = ParseCondition(text);
  EXPECT_TRUE(cond.ok()) << cond.status().ToString();
  return std::move(cond).value();
}

// π_attrs σ_cond over `rows` (laid out by `layout`), row by row.
RowSet FilterProject(const std::vector<Row>& rows, const RowLayout& layout,
                     const ConditionNode& cond, const AttributeSet& attrs,
                     const Schema& schema) {
  const RowLayout out(attrs, schema.num_attributes());
  RowSet result(out);
  for (const Row& row : rows) {
    const Result<bool> matches = EvalCondition(cond, row, layout, schema);
    EXPECT_TRUE(matches.ok());
    if (matches.ok() && *matches) result.Insert(layout.Project(row, out));
  }
  return result;
}

// Ground truth for a plan: every node evaluated straight from the table's
// rows (π σ per source query, a row filter per mediator SP, set union and
// intersection), with no source, executor or dedup map involved.
RowSet PlanOracle(const PlanNode& plan, const Table& table) {
  const Schema& schema = table.schema();
  switch (plan.kind()) {
    case PlanNode::Kind::kSourceQuery:
      return FilterProject(table.rows(), table.FullLayout(), *plan.condition(),
                           plan.attrs(), schema);
    case PlanNode::Kind::kMediatorSp: {
      const RowSet input = PlanOracle(*plan.children().front(), table);
      const std::vector<Row> rows(input.rows().begin(), input.rows().end());
      return FilterProject(rows, input.layout(), *plan.condition(),
                           plan.attrs(), schema);
    }
    case PlanNode::Kind::kUnion:
    case PlanNode::Kind::kIntersect: {
      RowSet acc = PlanOracle(*plan.children().front(), table);
      for (size_t i = 1; i < plan.children().size(); ++i) {
        const RowSet next = PlanOracle(*plan.children()[i], table);
        RowSet combined(acc.layout());
        for (const Row& row : acc.rows()) {
          if (plan.kind() == PlanNode::Kind::kUnion || next.Contains(row)) {
            combined.Insert(row);
          }
        }
        if (plan.kind() == PlanNode::Kind::kUnion) {
          for (const Row& row : next.rows()) combined.Insert(row);
        }
        acc = std::move(combined);
      }
      return acc;
    }
    case PlanNode::Kind::kChoice:
      break;
  }
  ADD_FAILURE() << "no oracle for " << plan.ToShortString();
  return RowSet();
}

class ExecFixture : public ::testing::Test {
 protected:
  ExecFixture()
      : description_(*ParseSsdl(R"(
          source R(k: string, v: int) {
            rule s1 -> k = $string;
            rule s2 -> v < $int;
            rule s3 -> v >= $int;
            export s1 : {k, v};
            export s2 : {k, v};
            export s3 : {k, v};
          })")),
        table_("R", description_.schema()),
        source_(&table_, &description_) {
    for (int i = 0; i < 10; ++i) {
      EXPECT_TRUE(table_
                      .AppendValues({Value::String(i % 2 ? "odd" : "even"),
                                     Value::Int(i)})
                      .ok());
    }
  }

  AttributeSet Attrs(const std::vector<std::string>& names) {
    return *description_.schema().MakeSet(names);
  }

  SourceDescription description_;
  Table table_;
  Source source_;
};

TEST_F(ExecFixture, SourceAnswersSupportedQuery) {
  const Result<RowSet> rows =
      source_.Execute(*Parse("k = \"odd\""), Attrs({"k", "v"}));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 5u);
  EXPECT_EQ(source_.stats().queries_answered, 1u);
  EXPECT_EQ(source_.stats().rows_returned, 5u);
}

TEST_F(ExecFixture, SourceRejectsUnsupportedCondition) {
  const Result<RowSet> rows =
      source_.Execute(*Parse("k = \"odd\" and v < 5"), Attrs({"k"}));
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kUnsupported);
  EXPECT_EQ(source_.stats().queries_rejected, 1u);
}

TEST_F(ExecFixture, SourceDeduplicatesProjectedRows) {
  const Result<RowSet> rows = source_.Execute(*Parse("v < 6"), Attrs({"k"}));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);  // "odd" and "even"
}

TEST_F(ExecFixture, ExecutorRunsSourceQuery) {
  Executor executor(&source_);
  const PlanPtr plan = PlanNode::SourceQuery(Parse("v < 3"), Attrs({"v"}));
  const Result<RowSet> rows = executor.Execute(*plan);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);
  EXPECT_EQ(executor.stats().source_queries, 1u);
  EXPECT_EQ(executor.stats().rows_transferred, 3u);
}

TEST_F(ExecFixture, ExecutorMediatorSelectProject) {
  Executor executor(&source_);
  // Fetch v < 8 with both attrs, filter k = "odd" at the mediator, project v.
  const PlanPtr plan = PlanNode::MediatorSp(
      Parse("k = \"odd\""), Attrs({"v"}),
      PlanNode::SourceQuery(Parse("v < 8"), Attrs({"k", "v"})));
  const Result<RowSet> rows = executor.Execute(*plan);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 4u);  // 1, 3, 5, 7
  EXPECT_EQ(executor.stats().rows_transferred, 8u);
}

TEST_F(ExecFixture, ExecutorUnionDeduplicates) {
  Executor executor(&source_);
  const PlanPtr plan = PlanNode::UnionOf(
      {PlanNode::SourceQuery(Parse("v < 6"), Attrs({"v"})),
       PlanNode::SourceQuery(Parse("v >= 4"), Attrs({"v"}))});
  const Result<RowSet> rows = executor.Execute(*plan);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 10u);
  // Overlap rows 4 and 5 are transferred twice but deduplicated.
  EXPECT_EQ(executor.stats().rows_transferred, 12u);
}

TEST_F(ExecFixture, ExecutorIntersect) {
  Executor executor(&source_);
  const PlanPtr plan = PlanNode::IntersectOf(
      {PlanNode::SourceQuery(Parse("v < 6"), Attrs({"v"})),
       PlanNode::SourceQuery(Parse("v >= 4"), Attrs({"v"}))});
  const Result<RowSet> rows = executor.Execute(*plan);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);  // 4, 5
}

TEST_F(ExecFixture, ExecutorRefusesChoice) {
  Executor executor(&source_);
  const PlanPtr a = PlanNode::SourceQuery(Parse("v < 6"), Attrs({"v"}));
  const PlanPtr b = PlanNode::SourceQuery(Parse("v >= 4"), Attrs({"v"}));
  const Result<RowSet> rows = executor.Execute(*PlanNode::Choice({a, b}));
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kInternal);
}

TEST_F(ExecFixture, TrueCostFormula) {
  Executor executor(&source_);
  const PlanPtr plan = PlanNode::UnionOf(
      {PlanNode::SourceQuery(Parse("v < 6"), Attrs({"v"})),
       PlanNode::SourceQuery(Parse("v >= 4"), Attrs({"v"}))});
  ASSERT_TRUE(executor.Execute(*plan).ok());
  EXPECT_DOUBLE_EQ(executor.stats().TrueCost(10.0, 1.0), 2 * 10.0 + 12.0);
}

TEST_F(ExecFixture, UnsupportedPropagatesThroughPlan) {
  Executor executor(&source_);
  const PlanPtr plan = PlanNode::UnionOf(
      {PlanNode::SourceQuery(Parse("v < 6"), Attrs({"v"})),
       PlanNode::SourceQuery(Parse("k = \"odd\" and v < 5"), Attrs({"v"}))});
  EXPECT_EQ(executor.Execute(*plan).status().code(), StatusCode::kUnsupported);
}

TEST_F(ExecFixture, DuplicateSourceQueriesAreFetchedOnce) {
  Executor executor(&source_);
  // The same SP(v < 6, {v}) appears twice; the dedup map must fetch it once
  // and share the result, so both stats and the source's own counters see a
  // single query.
  const PlanPtr dup = PlanNode::SourceQuery(Parse("v < 6"), Attrs({"v"}));
  const PlanPtr plan = PlanNode::UnionOf(
      {dup, PlanNode::SourceQuery(Parse("v >= 4"), Attrs({"v"})), dup});
  const Result<RowSet> rows = executor.Execute(*plan);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 10u);
  EXPECT_EQ(executor.stats().source_queries, 2u);
  EXPECT_EQ(executor.stats().rows_transferred, 12u);
  EXPECT_EQ(source_.stats().queries_received, 2u);
}

// Every consumer of a shared fetch gets the whole answer: the executor
// copies a fetched answer for every plan occurrence of its key but the
// last, and moves it into the last. Between them, these plans' rows change
// if any consumer gets an emptied answer, and each distinct key must cost
// one successful source query, in three regimes:
//   - zero latency: the first fetch publishes during the DAG walk, so the
//     later duplicates arrive after the publish;
//   - simulated latency (virtual time): every consumer waits on the fetch;
//   - a retryable failure once the duplicates queued: under
//     Union(dup, plan) the first fetch of dup fails both its attempts and
//     is degraded away, its entry is evicted, and the waiters inside the
//     plan re-enter and share one new fetch.
TEST_F(ExecFixture, EveryConsumerOfASharedFetchGetsTheWholeAnswer) {
  const AttributeSet kv = Attrs({"k", "v"});
  const PlanPtr dup = PlanNode::SourceQuery(Parse("v < 6"), kv);
  const PlanPtr x = PlanNode::SourceQuery(Parse("v >= 4"), kv);
  const PlanPtr odd = PlanNode::MediatorSp(Parse("k = \"odd\""), kv, dup);
  struct Case {
    PlanPtr plan;
    size_t distinct_keys;
    size_t rows;
  };
  const std::vector<Case> cases = {
      {PlanNode::IntersectOf({dup, odd}), 1, 3},  // 1, 3, 5
      {PlanNode::UnionOf({PlanNode::IntersectOf({dup, x}), dup}), 2, 6},
      {PlanNode::IntersectOf({PlanNode::UnionOf({x, odd}), dup}), 2, 4},
  };
  for (const Case& c : cases) {
    const RowSet want = PlanOracle(*c.plan, table_);
    ASSERT_EQ(want.size(), c.rows) << c.plan->ToShortString();
    for (const bool latency : {false, true}) {
      source_.set_simulated_latency(
          std::chrono::microseconds(latency ? 1000 : 0));
      source_.ResetStats();
      FakeClock clock;
      ExecOptions options;
      options.clock = &clock;
      Executor executor(&source_, nullptr, options);
      const Result<RowSet> rows = executor.Execute(*c.plan);
      ASSERT_TRUE(rows.ok()) << rows.status().ToString();
      EXPECT_EQ(rows->SortedRows(), want.SortedRows())
          << c.plan->ToShortString() << (latency ? " with latency" : "");
      EXPECT_EQ(executor.stats().source_queries, c.distinct_keys);
      EXPECT_EQ(source_.stats().queries_received, c.distinct_keys);
    }

    // dup's first fetch is call 0 and its retry the first call after the
    // plan's other keys went out: the outages fail exactly those two.
    source_.set_simulated_latency(std::chrono::microseconds(1000));
    source_.ResetStats();
    FaultPolicy policy;
    policy.outages = {{0, 1}, {c.distinct_keys, c.distinct_keys + 1}};
    source_.set_fault_policy(policy);
    FakeClock clock;
    ExecOptions options;
    options.clock = &clock;
    options.degrade_unions = true;
    options.retry.max_attempts = 2;
    Executor executor(&source_, nullptr, options);
    const Result<RowSet> rows =
        executor.Execute(*PlanNode::UnionOf({dup, c.plan}));
    source_.set_fault_policy(FaultPolicy{});
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(rows->SortedRows(), want.SortedRows())
        << c.plan->ToShortString() << " after re-entry";
    EXPECT_EQ(executor.stats().dropped_branches, 1u);
    EXPECT_EQ(executor.stats().failed_sub_queries, 1u);
    EXPECT_EQ(executor.stats().retries, 1u);
    EXPECT_EQ(executor.stats().source_queries, c.distinct_keys);
    EXPECT_EQ(source_.stats().queries_received, c.distinct_keys + 2);
  }
}

TEST_F(ExecFixture, ParallelExecutionMatchesSequentialExactly) {
  // A two-level plan mixing union, intersection, mediator postprocessing,
  // and a duplicated leaf — the shape IPG's set-cover combinations produce —
  // run with scans on the calling thread and with scans on a pool.
  const PlanPtr shared_leaf = PlanNode::SourceQuery(Parse("v < 8"), Attrs({"k", "v"}));
  const PlanPtr plan = PlanNode::UnionOf(
      {PlanNode::IntersectOf(
           {PlanNode::SourceQuery(Parse("v < 6"), Attrs({"v"})),
            PlanNode::SourceQuery(Parse("v >= 2"), Attrs({"v"}))}),
       PlanNode::MediatorSp(Parse("k = \"odd\""), Attrs({"v"}), shared_leaf),
       PlanNode::MediatorSp(Parse("k = \"even\""), Attrs({"v"}), shared_leaf)});

  Executor sequential(&source_);
  const Result<RowSet> seq_rows = sequential.Execute(*plan);
  ASSERT_TRUE(seq_rows.ok());

  ThreadPool pool(4);
  source_.ResetStats();
  Executor parallel(&source_, &pool);
  const Result<RowSet> par_rows = parallel.Execute(*plan);
  ASSERT_TRUE(par_rows.ok());

  // Bit-identical rows...
  EXPECT_EQ(par_rows->size(), seq_rows->size());
  for (const Row& row : seq_rows->rows()) {
    EXPECT_TRUE(par_rows->Contains(row));
  }
  // ...and identical transfer statistics (the dedup map makes the shared
  // leaf count once either way), hence identical true cost.
  EXPECT_EQ(parallel.stats().source_queries, sequential.stats().source_queries);
  EXPECT_EQ(parallel.stats().rows_transferred,
            sequential.stats().rows_transferred);
  EXPECT_DOUBLE_EQ(parallel.stats().TrueCost(10.0, 1.0),
                   sequential.stats().TrueCost(10.0, 1.0));
}

TEST_F(ExecFixture, ParallelUnionOverlapsSourceLatency) {
  source_.set_simulated_latency(std::chrono::microseconds(30000));
  const PlanPtr plan = PlanNode::UnionOf(
      {PlanNode::SourceQuery(Parse("v < 2"), Attrs({"v"})),
       PlanNode::SourceQuery(Parse("v < 4"), Attrs({"v"})),
       PlanNode::SourceQuery(Parse("v < 6"), Attrs({"v"})),
       PlanNode::SourceQuery(Parse("v >= 6"), Attrs({"v"}))});

  ThreadPool pool(4);
  Executor executor(&source_, &pool);
  const auto start = std::chrono::steady_clock::now();
  const Result<RowSet> rows = executor.Execute(*plan);
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 10u);
  // Four 30ms round trips back to back = 120ms; overlapping them on the
  // loop should land well under that even with scheduling slack.
  EXPECT_LT(elapsed_ms, 100.0);
}

// Across the same random environments the plan-quality benchmark uses,
// GenCompact's plans answer the same with scans offloaded to a pool as with
// scans on the calling thread — same rows, same (deduplicated) source-query
// count, same true cost.
TEST(ParallelExecParityTest, RandomWorkloadRowsAndTrueCostIdentical) {
  const Schema schema({{"s1", ValueType::kString},
                       {"s2", ValueType::kString},
                       {"s3", ValueType::kString},
                       {"n1", ValueType::kInt},
                       {"n2", ValueType::kInt}});
  ThreadPool pool(4);
  size_t executed = 0;
  for (uint64_t env_id = 0; env_id < 6; ++env_id) {
    Rng rng(9000 + env_id);
    const std::unique_ptr<Table> table =
        MakeRandomTable("src", schema, 500, 12, 50, &rng);
    RandomCapabilityOptions cap_options;
    cap_options.download_probability = 0.3;
    const SourceDescription description =
        RandomCapability("src", schema, cap_options, &rng);
    SourceHandle handle(description, table.get());
    Source source(table.get(), &handle.description());
    const std::vector<AttributeDomain> domains =
        ExtractDomains(*table, 6, &rng);

    for (size_t q = 0; q < 10; ++q) {
      RandomConditionOptions cond_options;
      cond_options.num_atoms = 2 + rng.NextIndex(5);
      const ConditionPtr cond = RandomCondition(domains, cond_options, &rng);
      AttributeSet attrs;
      attrs.Add(static_cast<int>(rng.NextIndex(schema.num_attributes())));
      const std::unique_ptr<PlannerStrategy> planner =
          MakePlanner(Strategy::kGenCompact, &handle);
      const Result<PlanPtr> plan = planner->Plan(cond, attrs);
      if (!plan.ok()) continue;

      Executor sequential(&source);
      const Result<RowSet> seq = sequential.Execute(**plan);
      ASSERT_TRUE(seq.ok()) << seq.status().ToString();

      Executor parallel(&source, &pool);
      const Result<RowSet> par = parallel.Execute(**plan);
      ASSERT_TRUE(par.ok()) << par.status().ToString();

      EXPECT_EQ(par->size(), seq->size());
      for (const Row& row : seq->rows()) EXPECT_TRUE(par->Contains(row));
      EXPECT_EQ(parallel.stats().source_queries,
                sequential.stats().source_queries);
      EXPECT_EQ(parallel.stats().rows_transferred,
                sequential.stats().rows_transferred);
      EXPECT_DOUBLE_EQ(
          parallel.stats().TrueCost(description.k1(), description.k2()),
          sequential.stats().TrueCost(description.k1(), description.k2()));
      ++executed;
    }
  }
  EXPECT_GE(executed, 20u);  // the sweep must actually exercise plans
}

TEST_F(ExecFixture, ParallelErrorMatchesSequentialStatus) {
  ThreadPool pool(4);
  Executor executor(&source_, &pool);
  const PlanPtr plan = PlanNode::UnionOf(
      {PlanNode::SourceQuery(Parse("v < 6"), Attrs({"v"})),
       PlanNode::SourceQuery(Parse("k = \"odd\" and v < 5"), Attrs({"v"}))});
  EXPECT_EQ(executor.Execute(*plan).status().code(), StatusCode::kUnsupported);
}

TEST_F(ExecFixture, ParallelUnsupportedPropagatesFromEightThreads) {
  // One unsupported leaf among many healthy ones, scanned on 8 workers: the
  // error must surface (not deadlock, not leak a pending fetch) and the
  // executor must remain usable for the next execution.
  ThreadPool pool(8);
  Executor executor(&source_, &pool);
  std::vector<PlanPtr> children;
  for (int i = 1; i <= 7; ++i) {
    children.push_back(PlanNode::SourceQuery(
        Parse("v < " + std::to_string(i)), Attrs({"v"})));
  }
  children.push_back(
      PlanNode::SourceQuery(Parse("k = \"odd\" and v < 5"), Attrs({"v"})));
  const PlanPtr plan = PlanNode::UnionOf(std::move(children));
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(executor.Execute(*plan).status().code(),
              StatusCode::kUnsupported);
  }
  const PlanPtr healthy = PlanNode::SourceQuery(Parse("v < 6"), Attrs({"v"}));
  EXPECT_TRUE(executor.Execute(*healthy).ok());
}

TEST_F(ExecFixture, ParallelUnavailablePropagatesFromEightThreads) {
  // Every call fails: a hard outage. All 8 branches fail; the surfaced
  // status is the first (by plan order) child's failure.
  FaultPolicy dead;
  dead.outages.push_back({0, 1u << 20});
  source_.set_fault_policy(dead);
  ThreadPool pool(8);
  Executor executor(&source_, &pool);
  std::vector<PlanPtr> children;
  for (int i = 1; i <= 8; ++i) {
    children.push_back(PlanNode::SourceQuery(
        Parse("v < " + std::to_string(i)), Attrs({"v"})));
  }
  const PlanPtr plan = PlanNode::UnionOf(std::move(children));
  const Result<RowSet> rows = executor.Execute(*plan);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(executor.stats().failed_sub_queries, 8u);
}

TEST_F(ExecFixture, ParallelDegradedUnionKeepsSurvivingBranches) {
  // Exactly one injected failure among 8 branches with degradation:
  // whichever branch draws it is dropped, every other branch answers, and
  // the partial answer is annotated. Repeated with scans on 8 workers;
  // counters must come out identical every time.
  source_.set_fault_policy(FaultPolicy{});
  ThreadPool pool(8);
  ExecOptions options;
  options.degrade_unions = true;
  for (int round = 0; round < 5; ++round) {
    source_.fault_injector()->FailNextN(1);
    Executor executor(&source_, &pool, options);
    std::vector<PlanPtr> children;
    for (int i = 1; i <= 8; ++i) {
      children.push_back(PlanNode::SourceQuery(
          Parse("v < " + std::to_string(i)), Attrs({"v"})));
    }
    const PlanPtr plan = PlanNode::UnionOf(std::move(children));
    const Result<RowSet> rows = executor.Execute(*plan);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(executor.stats().dropped_branches, 1u);
    EXPECT_EQ(executor.stats().source_queries, 7u);
    EXPECT_EQ(executor.dropped_sub_queries().size(), 1u);
    // The widest surviving branch is v < 8 or v < 7; either way at least
    // the v < 7 rows are present.
    EXPECT_GE(rows->size(), 7u);
  }
}

TEST_F(ExecFixture, DuplicateFailedFetchIsEvictedAndRefetched) {
  // The same sub-query appears at positions 0 and 2; position 0's fetch
  // fails (scripted) and is degraded away. The failure must NOT poison the
  // dedup map: position 2 re-fetches and succeeds.
  source_.set_fault_policy(FaultPolicy{});
  source_.fault_injector()->FailNextN(1);
  ExecOptions options;
  options.degrade_unions = true;
  Executor executor(&source_, nullptr, options);
  const PlanPtr dup = PlanNode::SourceQuery(Parse("v < 6"), Attrs({"v"}));
  const PlanPtr plan = PlanNode::UnionOf(
      {dup, PlanNode::SourceQuery(Parse("v >= 4"), Attrs({"v"})), dup});
  const Result<RowSet> rows = executor.Execute(*plan);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  // v >= 4 (6 rows) ∪ re-fetched v < 6 (6 rows) = all 10 values.
  EXPECT_EQ(rows->size(), 10u);
  EXPECT_EQ(executor.stats().dropped_branches, 1u);
  EXPECT_EQ(executor.stats().source_queries, 2u);  // the two successes
  EXPECT_EQ(executor.stats().failed_sub_queries, 1u);
  // Three round trips reached the source: fail, success, re-fetch success.
  EXPECT_EQ(source_.stats().queries_received, 3u);
}

TEST_F(ExecFixture, ConcurrentWaitersObserveEvictionAndRefetch) {
  // Regression for the dedup eviction order: the owner of a failed fetch
  // must evict the map entry BEFORE waking its waiters, and a waiter that
  // observes a retryable failure must re-enter and re-fetch on a fresh
  // entry instead of inheriting the failure. Eight identical branches share
  // one sub-query; the scripted fault burns exactly one fetch generation,
  // so exactly two round trips reach the source.
  source_.set_fault_policy(FaultPolicy{});
  ThreadPool pool(8);
  ExecOptions options;
  options.degrade_unions = true;
  for (int round = 0; round < 5; ++round) {
    source_.fault_injector()->FailNextN(1);
    source_.ResetStats();
    Executor executor(&source_, &pool, options);
    std::vector<PlanPtr> children;
    for (int i = 0; i < 8; ++i) {
      children.push_back(PlanNode::SourceQuery(Parse("v < 6"), Attrs({"v"})));
    }
    const PlanPtr plan = PlanNode::UnionOf(std::move(children));
    const Result<RowSet> rows = executor.Execute(*plan);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(rows->size(), 6u);
    EXPECT_EQ(executor.stats().dropped_branches, 1u);  // the doomed owner
    EXPECT_EQ(executor.stats().failed_sub_queries, 1u);
    EXPECT_EQ(executor.stats().source_queries, 1u);  // one success, shared
    EXPECT_EQ(source_.stats().queries_received, 2u);  // fail + re-fetch
    EXPECT_EQ(executor.failed_sub_query_keys().size(), 1u);
  }
}

}  // namespace
}  // namespace gencompact
