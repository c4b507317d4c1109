// Result-bounded sources (DESIGN.md "Result bounds & completeness"):
//  - SSDL `bound N [page M] [accesses K]` parsing, validation, round trip;
//  - Source-level paged protocol: deterministic page slices, silent
//    truncation on the plain call, offset rejection without paging;
//  - Executor paging loop: exact answers via paging, per-page retries that
//    resume at the right offset (no duplicate / dropped rows), access
//    limits, breaker trips and budget exhaustion mid-loop;
//  - three-outcome classification and exact-via-refinement plan rewrites;
//  - mediator completeness markers, truncation stats, EXPLAIN ANALYZE's
//    actual rows over every page, and avoid-set re-planning around a
//    truncated bounded source;
//  - result_bound = 0 stays bit-identical to the unbounded mediator.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/clock.h"
#include "exec/circuit_breaker.h"
#include "exec/executor.h"
#include "exec/fault_policy.h"
#include "expr/condition_parser.h"
#include "mediator/mediator.h"
#include "plan/bounded.h"
#include "planner/source_handle.h"
#include "ssdl/description_io.h"
#include "ssdl/ssdl_parser.h"

namespace gencompact {
namespace {

ConditionPtr Parse(const std::string& text) {
  Result<ConditionPtr> cond = ParseCondition(text);
  EXPECT_TRUE(cond.ok()) << cond.status().ToString();
  return std::move(cond).value();
}

// ---------------------------------------------------------------------------
// SSDL model: parsing, validation, round trip.
// ---------------------------------------------------------------------------

TEST(BoundedSsdlTest, ParsesBoundPageAndAccesses) {
  const Result<SourceDescription> description = ParseSsdl(R"(
    source R(k: string, v: int) {
      cost 10.0 1.0;
      bound 100 page 25 accesses 8;
      rule s1 -> k = $string;
      export s1 : {k, v};
    })");
  ASSERT_TRUE(description.ok()) << description.status().ToString();
  const ResultBound& bound = description->result_bound();
  EXPECT_TRUE(bound.bounded());
  EXPECT_EQ(bound.result_bound, 100u);
  EXPECT_TRUE(bound.supports_paging);
  EXPECT_EQ(bound.page_size, 25u);
  EXPECT_EQ(bound.max_accesses, 8u);
  EXPECT_EQ(bound.EffectivePageSize(), 25u);
}

TEST(BoundedSsdlTest, BoundAloneDisablesPaging) {
  const Result<SourceDescription> description = ParseSsdl(R"(
    source R(k: string, v: int) {
      bound 7;
      rule s1 -> k = $string;
      export s1 : {k, v};
    })");
  ASSERT_TRUE(description.ok());
  const ResultBound& bound = description->result_bound();
  EXPECT_TRUE(bound.bounded());
  EXPECT_FALSE(bound.supports_paging);
  EXPECT_EQ(bound.max_accesses, 0u);
  // Without paging the whole bound is the single "page".
  EXPECT_EQ(bound.EffectivePageSize(), 7u);
}

TEST(BoundedSsdlTest, OmittedBoundMeansUnbounded) {
  const Result<SourceDescription> description = ParseSsdl(R"(
    source R(k: string, v: int) {
      rule s1 -> k = $string;
      export s1 : {k, v};
    })");
  ASSERT_TRUE(description.ok());
  EXPECT_FALSE(description->result_bound().bounded());
  EXPECT_EQ(description->result_bound().EffectivePageSize(), 0u);
}

TEST(BoundedSsdlTest, RejectsMalformedBoundClauses) {
  const char* bad[] = {
      "source R(k: string) { bound 0; rule s1 -> k = $string; "
      "export s1 : {k}; }",  // zero bound
      "source R(k: string) { bound 10 page 20; rule s1 -> k = $string; "
      "export s1 : {k}; }",  // page > bound
      "source R(k: string) { bound 10 pages 2; rule s1 -> k = $string; "
      "export s1 : {k}; }",  // unknown clause
      "source R(k: string) { bound; rule s1 -> k = $string; "
      "export s1 : {k}; }",  // missing count
  };
  for (const char* text : bad) {
    const Result<SourceDescription> description = ParseSsdl(text);
    ASSERT_FALSE(description.ok()) << text;
    EXPECT_EQ(description.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(BoundedSsdlTest, BoundSurvivesWriteParseRoundTrip) {
  const Result<SourceDescription> original = ParseSsdl(R"(
    source R(k: string, v: int) {
      cost 10.0 1.0;
      bound 50 page 10 accesses 4;
      rule s1 -> k = $string;
      export s1 : {k, v};
    })");
  ASSERT_TRUE(original.ok());
  const Result<std::string> text = WriteSsdl(*original);
  ASSERT_TRUE(text.ok());
  const Result<SourceDescription> reparsed = ParseSsdl(*text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->result_bound(), original->result_bound());
}

// ---------------------------------------------------------------------------
// Source-level paged protocol.
// ---------------------------------------------------------------------------

constexpr const char* kBoundedSsdlTemplate = R"(
source R(k: string, v: int) {
  cost 10.0 1.0;
  %s
  rule s1 -> k = $string;
  rule s2 -> v < $int;
  rule s3 -> v >= $int;
  rule s4 -> v < $int or v >= $int;
  export s1 : {k, v};
  export s2 : {k, v};
  export s3 : {k, v};
  export s4 : {k, v};
})";

std::string BoundedSsdl(const std::string& bound_line) {
  char text[1024];
  std::snprintf(text, sizeof(text), kBoundedSsdlTemplate, bound_line.c_str());
  return text;
}

class BoundedSourceTest : public ::testing::Test {
 protected:
  /// (Re)builds the fixture source with the given `bound ...;` line ("" for
  /// unbounded). 10 rows: k alternates odd/even, v = 0..9.
  void Build(const std::string& bound_line) {
    Result<SourceDescription> description = ParseSsdl(BoundedSsdl(bound_line));
    ASSERT_TRUE(description.ok()) << description.status().ToString();
    description_.emplace(std::move(description).value());
    table_ = std::make_unique<Table>("R", description_->schema());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(table_
                      ->AppendValues({Value::String(i % 2 ? "odd" : "even"),
                                      Value::Int(i)})
                      .ok());
    }
    source_ = std::make_unique<Source>(table_.get(), &*description_);
  }

  AttributeSet Attrs(const std::vector<std::string>& names) {
    return *description_->schema().MakeSet(names);
  }

  std::optional<SourceDescription> description_;
  std::unique_ptr<Table> table_;
  std::unique_ptr<Source> source_;
};

TEST_F(BoundedSourceTest, PlainExecuteSilentlyTruncatesToTheBound) {
  Build("bound 4;");
  const Result<RowSet> rows =
      source_->Execute(*Parse("v < 9"), Attrs({"k", "v"}));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 4u);  // 9 matching rows, bound 4 ship
  EXPECT_EQ(source_->stats().pages_served, 1u);
  EXPECT_EQ(source_->stats().truncated_responses, 1u);
}

TEST_F(BoundedSourceTest, PagesTileTheAnswerExactly) {
  Build("bound 4 page 3;");
  const ConditionPtr cond = Parse("v < 8");  // 8 matching rows
  RowSet all(RowLayout(Attrs({"k", "v"}), description_->schema().num_attributes()));
  PageInfo info;
  uint64_t offset = 0;
  size_t pages = 0;
  do {
    const Result<RowSet> page =
        source_->ExecutePage(*cond, Attrs({"k", "v"}), PageRequest{offset},
                             &info);
    ASSERT_TRUE(page.ok());
    EXPECT_TRUE(info.bounded);
    EXPECT_LE(page->size(), 3u);
    for (const Row& row : page->rows()) {
      EXPECT_TRUE(all.Insert(row)) << "page shipped a duplicate row";
    }
    offset = info.next_offset;
    ++pages;
  } while (info.has_more);
  EXPECT_EQ(all.size(), 8u);
  EXPECT_EQ(pages, 3u);  // 3 + 3 + 2
  EXPECT_EQ(source_->stats().pages_served, 3u);
  EXPECT_EQ(source_->stats().truncated_responses, 2u);  // last page is final
}

TEST_F(BoundedSourceTest, RepeatedPageRequestShipsIdenticalRows) {
  Build("bound 4 page 3;");
  const ConditionPtr cond = Parse("v < 8");
  PageInfo info;
  const Result<RowSet> first =
      source_->ExecutePage(*cond, Attrs({"k", "v"}), PageRequest{3}, &info);
  const Result<RowSet> second =
      source_->ExecutePage(*cond, Attrs({"k", "v"}), PageRequest{3}, &info);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  // Canonical order is a pure function of the immutable table and the
  // condition — a retried page can neither duplicate nor drop rows.
  ASSERT_EQ(first->size(), second->size());
  for (const Row& row : first->rows()) {
    EXPECT_TRUE(second->Contains(row));
  }
}

TEST_F(BoundedSourceTest, OffsetRejectedWithoutPagingSupport) {
  Build("bound 4;");
  PageInfo info;
  const Result<RowSet> page = source_->ExecutePage(
      *Parse("v < 9"), Attrs({"k", "v"}), PageRequest{4}, &info);
  ASSERT_FALSE(page.ok());
  EXPECT_EQ(page.status().code(), StatusCode::kUnsupported);

  Build("");  // unbounded sources likewise have no page 2
  const Result<RowSet> beyond = source_->ExecutePage(
      *Parse("v < 9"), Attrs({"k", "v"}), PageRequest{4}, &info);
  ASSERT_FALSE(beyond.ok());
  EXPECT_EQ(beyond.status().code(), StatusCode::kUnsupported);
}

TEST_F(BoundedSourceTest, PageFaultScheduleFailsExactlyTheTargetedOffset) {
  Build("bound 4 page 2;");
  FaultPolicy policy;
  policy.page_faults.push_back({/*offset=*/2, /*fail_count=*/1});
  source_->set_fault_policy(policy);
  const ConditionPtr cond = Parse("v < 6");
  PageInfo info;
  // Offset 0 is clean; offset 2 fails once, then succeeds on re-request.
  ASSERT_TRUE(source_->ExecutePage(*cond, Attrs({"k", "v"}), PageRequest{0},
                                   &info)
                  .ok());
  const Result<RowSet> faulted = source_->ExecutePage(
      *cond, Attrs({"k", "v"}), PageRequest{2}, &info);
  ASSERT_FALSE(faulted.ok());
  EXPECT_EQ(faulted.status().code(), StatusCode::kUnavailable);
  ASSERT_TRUE(source_->ExecutePage(*cond, Attrs({"k", "v"}), PageRequest{2},
                                   &info)
                  .ok());
}

// ---------------------------------------------------------------------------
// Executor paging loop.
// ---------------------------------------------------------------------------

class BoundedExecutorTest : public BoundedSourceTest {
 protected:
  ExecOptions RetryOptions(size_t attempts) {
    ExecOptions options;
    options.retry.max_attempts = attempts;
    options.retry.backoff.base = std::chrono::microseconds(1);
    options.retry.backoff.cap = std::chrono::microseconds(2);
    options.clock = &clock_;
    return options;
  }

  /// The reference answer from an unbounded twin of the same table.
  RowSet Reference(const std::string& cond, bool* ok = nullptr) {
    Result<SourceDescription> description = ParseSsdl(BoundedSsdl(""));
    EXPECT_TRUE(description.ok());
    Source unbounded(table_.get(), &*description);
    Result<RowSet> rows =
        unbounded.Execute(*Parse(cond), Attrs({"k", "v"}));
    EXPECT_TRUE(rows.ok());
    if (ok != nullptr) *ok = rows.ok();
    return std::move(rows).value();
  }

  FakeClock clock_;
};

TEST_F(BoundedExecutorTest, PagingLoopRecoversTheExactAnswer) {
  Build("bound 4 page 3;");
  Executor executor(source_.get());
  const PlanPtr plan =
      PlanNode::SourceQuery(Parse("v < 8"), Attrs({"k", "v"}));
  const Result<RowSet> rows = executor.Execute(*plan);
  ASSERT_TRUE(rows.ok());
  const RowSet expected = Reference("v < 8");
  ASSERT_EQ(rows->size(), expected.size());
  for (const Row& row : expected.rows()) EXPECT_TRUE(rows->Contains(row));
  EXPECT_EQ(executor.stats().pages_fetched, 3u);
  EXPECT_EQ(executor.stats().truncated_sub_queries, 0u);
  EXPECT_TRUE(executor.truncation_records().empty());
  // rows_transferred counts what actually shipped: the page sizes sum to
  // the full answer, nothing twice.
  EXPECT_EQ(executor.stats().rows_transferred, expected.size());
}

TEST_F(BoundedExecutorTest, MidPageTransientRetriesResumeAtTheSameOffset) {
  Build("bound 4 page 2;");
  FaultPolicy policy;
  policy.page_faults.push_back({/*offset=*/2, /*fail_count=*/2});
  policy.page_faults.push_back({/*offset=*/6, /*fail_count=*/1});
  source_->set_fault_policy(policy);

  Executor executor(source_.get(), nullptr, RetryOptions(4));
  const PlanPtr plan =
      PlanNode::SourceQuery(Parse("v < 8"), Attrs({"k", "v"}));
  const Result<RowSet> rows = executor.Execute(*plan);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  const RowSet expected = Reference("v < 8");
  // Exact: the retried pages re-read their own offsets — no duplicates, no
  // gaps, bit-identical to the unbounded answer.
  ASSERT_EQ(rows->size(), expected.size());
  for (const Row& row : expected.rows()) EXPECT_TRUE(rows->Contains(row));
  EXPECT_EQ(executor.stats().retries, 3u);
  EXPECT_EQ(executor.stats().pages_fetched, 4u);  // 8 rows / 2 per page
  EXPECT_TRUE(executor.truncation_records().empty());
}

TEST_F(BoundedExecutorTest, NonPagingBoundYieldsMarkedPartialAnswer) {
  Build("bound 4;");
  ExecOptions options = RetryOptions(1);
  options.partial_pages = true;
  Executor executor(source_.get(), nullptr, options);
  const PlanPtr plan =
      PlanNode::SourceQuery(Parse("v < 9"), Attrs({"k", "v"}));
  const Result<RowSet> rows = executor.Execute(*plan);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 4u);  // the bound's worth of the 9 true rows
  // Every shipped row is a true answer row: a strict subset, never garbage.
  const RowSet expected = Reference("v < 9");
  for (const Row& row : rows->rows()) EXPECT_TRUE(expected.Contains(row));

  EXPECT_EQ(executor.stats().truncated_sub_queries, 1u);
  const std::vector<TruncationRecord> records = executor.truncation_records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].source, "R");
  EXPECT_EQ(records[0].bound, 4u);
  EXPECT_EQ(records[0].rows_lower_bound, 4u);
  EXPECT_NE(records[0].reason.find("does not page"), std::string::npos)
      << records[0].reason;
}

TEST_F(BoundedExecutorTest, AccessLimitStopsTheLoopWithAMarker) {
  Build("bound 4 page 2 accesses 3;");
  ExecOptions options;
  options.partial_pages = true;
  Executor executor(source_.get(), nullptr, options);
  const PlanPtr plan =
      PlanNode::SourceQuery(Parse("v < 9"), Attrs({"k", "v"}));
  const Result<RowSet> rows = executor.Execute(*plan);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 6u);  // 3 accesses x 2-row pages of the 9 true rows
  EXPECT_EQ(executor.stats().pages_fetched, 3u);
  const std::vector<TruncationRecord> records = executor.truncation_records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].rows_lower_bound, 6u);
  EXPECT_NE(records[0].reason.find("access limit"), std::string::npos)
      << records[0].reason;
}

TEST_F(BoundedExecutorTest, RetryBudgetExhaustionMidLoopKeepsThePrefix) {
  Build("bound 4 page 2;");
  FaultPolicy policy;
  // Page at offset 4 fails more times than the retry discipline tolerates.
  policy.page_faults.push_back({/*offset=*/4, /*fail_count=*/10});
  source_->set_fault_policy(policy);

  ExecOptions options = RetryOptions(3);
  options.partial_pages = true;
  Executor executor(source_.get(), nullptr, options);
  const PlanPtr plan =
      PlanNode::SourceQuery(Parse("v < 9"), Attrs({"k", "v"}));
  const Result<RowSet> rows = executor.Execute(*plan);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 4u);  // pages at offsets 0 and 2 arrived
  const RowSet expected = Reference("v < 9");
  for (const Row& row : rows->rows()) EXPECT_TRUE(expected.Contains(row));
  const std::vector<TruncationRecord> records = executor.truncation_records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].rows_lower_bound, 4u);
  EXPECT_NE(records[0].reason.find("paging interrupted"), std::string::npos)
      << records[0].reason;

  // Without partial_pages the same failure fails the sub-query outright —
  // the strict (non-degraded) semantics.
  source_->set_fault_policy(policy);
  Executor strict(source_.get(), nullptr, RetryOptions(3));
  const Result<RowSet> failed = strict.Execute(*plan);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(strict.truncation_records().empty());
}

TEST_F(BoundedExecutorTest, BreakerTripMidLoopYieldsMarkedPartialAnswer) {
  Build("bound 4 page 2;");
  FaultPolicy policy;
  policy.page_faults.push_back({/*offset=*/4, /*fail_count=*/10});
  source_->set_fault_policy(policy);

  CircuitBreakerOptions breaker_options;
  breaker_options.failure_threshold = 2;
  CircuitBreaker breaker(breaker_options, &clock_);
  ExecOptions options = RetryOptions(5);
  options.breaker = &breaker;
  options.partial_pages = true;
  Executor executor(source_.get(), nullptr, options);
  const PlanPtr plan =
      PlanNode::SourceQuery(Parse("v < 9"), Attrs({"k", "v"}));
  const Result<RowSet> rows = executor.Execute(*plan);
  ASSERT_TRUE(rows.ok());
  // The breaker opened while page 3 was retrying; the two clean pages
  // survive as a marked partial answer and the loop stopped probing.
  EXPECT_EQ(rows->size(), 4u);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  ASSERT_EQ(executor.truncation_records().size(), 1u);
  EXPECT_EQ(executor.truncation_records()[0].rows_lower_bound, 4u);
}

// ---------------------------------------------------------------------------
// Classification and refinement.
// ---------------------------------------------------------------------------

class BoundedPlanningTest : public BoundedSourceTest {
 protected:
  /// A SourceHandle over the fixture's description/table — the planner-side
  /// view with a real cardinality estimator.
  std::unique_ptr<SourceHandle> Handle() {
    return std::make_unique<SourceHandle>(*description_, table_.get());
  }
};

TEST_F(BoundedPlanningTest, ClassifiesAllThreeOutcomes) {
  Build("bound 4 page 2;");
  std::unique_ptr<SourceHandle> handle = Handle();
  const CostModel& cost = handle->cost_model();
  const AttributeSet attrs = Attrs({"k", "v"});
  const ResultBound& bound = description_->result_bound();

  EXPECT_EQ(ClassifySourceQuery(Parse("v < 2"), attrs, ResultBound{}, cost,
                                handle->checker()),
            BoundedOutcome::kUnbounded);
  EXPECT_EQ(ClassifySourceQuery(Parse("v < 2"), attrs, bound, cost,
                                handle->checker()),
            BoundedOutcome::kFitsUnderBound);
  EXPECT_EQ(ClassifySourceQuery(Parse("v < 9"), attrs, bound, cost,
                                handle->checker()),
            BoundedOutcome::kExactViaPaging);

  // Non-paging bound: an over-bound disjunction the grammar supports piece
  // by piece refines; an over-bound atom has nothing to split.
  Build("bound 4;");
  std::unique_ptr<SourceHandle> non_paging = Handle();
  const ResultBound& hard = description_->result_bound();
  EXPECT_EQ(
      ClassifySourceQuery(Parse("v < 3 or v >= 7"), attrs, hard,
                          non_paging->cost_model(), non_paging->checker()),
      BoundedOutcome::kExactViaRefinement);
  EXPECT_EQ(ClassifySourceQuery(Parse("v < 9"), attrs, hard,
                                non_paging->cost_model(),
                                non_paging->checker()),
            BoundedOutcome::kLikelyPartial);
}

TEST_F(BoundedPlanningTest, RefinementSplitsIntoUnionOfFittingPieces) {
  Build("bound 4;");
  std::unique_ptr<SourceHandle> handle = Handle();
  const PlanPtr plan = PlanNode::SourceQuery(Parse("v < 3 or v >= 7"),
                                             Attrs({"k", "v"}));
  const BoundedRefinement refined =
      RefineBoundedPlan(plan, description_->result_bound(),
                        handle->cost_model(), handle->checker());
  EXPECT_EQ(refined.splits, 1u);
  ASSERT_NE(refined.plan, plan);
  EXPECT_EQ(refined.plan->kind(), PlanNode::Kind::kUnion);
  EXPECT_EQ(refined.plan->children().size(), 2u);
  for (const PlanPtr& child : refined.plan->children()) {
    EXPECT_EQ(child->kind(), PlanNode::Kind::kSourceQuery);
  }
}

TEST_F(BoundedPlanningTest, RefinementLeavesFittingPlansAlone) {
  Build("bound 4;");
  std::unique_ptr<SourceHandle> handle = Handle();
  const PlanPtr plan =
      PlanNode::SourceQuery(Parse("v < 2"), Attrs({"k", "v"}));
  const BoundedRefinement refined =
      RefineBoundedPlan(plan, description_->result_bound(),
                        handle->cost_model(), handle->checker());
  EXPECT_EQ(refined.splits, 0u);
  EXPECT_EQ(refined.plan, plan);  // shared, not rebuilt
}

TEST_F(BoundedPlanningTest, BoundShapesTheCostModel) {
  Build("bound 4 page 2;");
  std::unique_ptr<SourceHandle> paged = Handle();
  Build("bound 4;");
  std::unique_ptr<SourceHandle> hard = Handle();
  Build("");
  std::unique_ptr<SourceHandle> free = Handle();
  const AttributeSet attrs = Attrs({"k", "v"});
  const ConditionPtr big = Parse("v < 9");  // est well over the bound

  const double unbounded_cost =
      free->cost_model().SourceQueryCost(*big, attrs);
  // Paging pays one k1 per page the loop will drive.
  EXPECT_GT(paged->cost_model().SourceQueryCost(*big, attrs), unbounded_cost);
  // A non-paging over-bound query carries the truncation-risk multiplier —
  // the analogue of the breaker's open-state penalty.
  EXPECT_GE(hard->cost_model().SourceQueryCost(*big, attrs),
            unbounded_cost * hard->cost_model().truncation_risk_multiplier());

  // Under the bound (one page suffices), all three models agree exactly
  // (Equation 1).
  const ConditionPtr small = Parse("v < 2");
  EXPECT_EQ(paged->cost_model().SourceQueryCost(*small, attrs),
            free->cost_model().SourceQueryCost(*small, attrs));
  EXPECT_EQ(hard->cost_model().SourceQueryCost(*small, attrs),
            free->cost_model().SourceQueryCost(*small, attrs));
}

// ---------------------------------------------------------------------------
// Mediator end to end.
// ---------------------------------------------------------------------------

class BoundedMediatorTest : public ::testing::Test {
 protected:
  std::unique_ptr<Mediator> MakeMediator(const std::string& bound_line,
                                         Mediator::Options options = {}) {
    options.clock = &clock_;
    auto mediator = std::make_unique<Mediator>(options);
    Result<SourceDescription> description =
        ParseSsdl(BoundedSsdl(bound_line));
    EXPECT_TRUE(description.ok()) << description.status().ToString();
    auto table = std::make_unique<Table>("R", description->schema());
    for (int i = 0; i < 10; ++i) {
      EXPECT_TRUE(table
                      ->AppendValues({Value::String(i % 2 ? "odd" : "even"),
                                      Value::Int(i)})
                      .ok());
    }
    EXPECT_TRUE(mediator
                    ->RegisterSource(std::move(description).value(),
                                     std::move(table))
                    .ok());
    return mediator;
  }

  FakeClock clock_;
};

TEST_F(BoundedMediatorTest, PagingRecoversExactAnswersTransparently) {
  std::unique_ptr<Mediator> bounded = MakeMediator("bound 4 page 2;");
  std::unique_ptr<Mediator> unbounded = MakeMediator("");
  const std::string sql = "SELECT k, v FROM R WHERE v < 8";
  const Result<Mediator::QueryResult> a = bounded->Query(sql);
  const Result<Mediator::QueryResult> b = unbounded->Query(sql);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->completeness.complete);
  EXPECT_TRUE(a->completeness.truncated_sources.empty());
  ASSERT_EQ(a->rows.size(), b->rows.size());
  for (const Row& row : b->rows.rows()) EXPECT_TRUE(a->rows.Contains(row));

  const Mediator::Stats stats = bounded->StatsSnapshot();
  EXPECT_EQ(stats.bounded.pages_fetched, 4u);
  EXPECT_EQ(stats.bounded.truncated_answers, 0u);
  ASSERT_EQ(stats.sources.size(), 1u);
  EXPECT_EQ(stats.sources[0].source.pages_served, 4u);
}

TEST_F(BoundedMediatorTest, ExplainAnalyzeCountsEveryPageOfTheOneExecution) {
  const std::string sql = "SELECT k, v FROM R WHERE v < 8";
  const Result<Mediator::QueryResult> query =
      MakeMediator("bound 4 page 2;")->Query(sql);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ASSERT_EQ(query->rows.size(), 8u);

  std::unique_ptr<Mediator> mediator = MakeMediator("bound 4 page 2;");
  const Result<std::string> text =
      mediator->ExplainAnalyze(sql, Strategy::kGenCompact);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  // The source query's actual rows are all four pages, and the true cost is
  // the one Query reports: the execution itself, run once.
  EXPECT_NE(text->find("actual=8 "), std::string::npos) << *text;
  char true_cost[64];
  std::snprintf(true_cost, sizeof(true_cost), "true cost %.1f",
                query->true_cost);
  EXPECT_NE(text->find(true_cost), std::string::npos) << *text;
  // Four page calls and no second trip to count rows.
  const Mediator::Stats stats = mediator->StatsSnapshot();
  ASSERT_EQ(stats.sources.size(), 1u);
  EXPECT_EQ(stats.sources[0].source.queries_received, 4u);
  EXPECT_EQ(stats.bounded.pages_fetched, 4u);
}

TEST_F(BoundedMediatorTest, RefinementRecoversExactAnswersWithoutPaging) {
  std::unique_ptr<Mediator> bounded = MakeMediator("bound 4;");
  std::unique_ptr<Mediator> unbounded = MakeMediator("");
  // The grammar supports the whole disjunction (s4), whose 6-row answer
  // exceeds the bound — but each disjunct fits, so either the cost model's
  // truncation-risk penalty steers planning to per-piece queries or the
  // refinement pass splits the single query; both recover exactness.
  const std::string sql = "SELECT k, v FROM R WHERE v < 3 or v >= 7";
  const Result<Mediator::QueryResult> a = bounded->Query(sql);
  const Result<Mediator::QueryResult> b = unbounded->Query(sql);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->completeness.complete);
  ASSERT_EQ(a->rows.size(), b->rows.size());
  for (const Row& row : b->rows.rows()) EXPECT_TRUE(a->rows.Contains(row));
}

TEST_F(BoundedMediatorTest, TruncatedAnswerCarriesTheMarker) {
  Mediator::Options options;
  options.partial_results = true;
  std::unique_ptr<Mediator> mediator = MakeMediator("bound 4;", options);
  const Result<Mediator::QueryResult> result =
      mediator->Query("SELECT k, v FROM R WHERE v < 9");
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->completeness.complete);
  ASSERT_EQ(result->completeness.truncated_sources.size(), 1u);
  const TruncationRecord& marker =
      result->completeness.truncated_sources[0];
  EXPECT_EQ(marker.source, "R");
  EXPECT_EQ(marker.bound, 4u);
  EXPECT_EQ(marker.rows_lower_bound, 4u);
  EXPECT_EQ(result->rows.size(), 4u);

  const Mediator::Stats stats = mediator->StatsSnapshot();
  EXPECT_EQ(stats.bounded.truncated_answers, 1u);
  EXPECT_EQ(stats.fault_tolerance.queries_partial, 1u);
  EXPECT_NE(stats.ToString().find("answers.truncated"), std::string::npos);
}

TEST_F(BoundedMediatorTest, ZeroBoundIsBitIdenticalToToday) {
  std::unique_ptr<Mediator> plain = MakeMediator("");
  Mediator::Options featureful;
  featureful.replan_on_truncation = true;
  featureful.partial_results = true;
  std::unique_ptr<Mediator> guarded = MakeMediator("", featureful);
  const std::vector<std::string> queries = {
      "SELECT k, v FROM R WHERE v < 8",
      "SELECT k, v FROM R WHERE k = \"odd\" or v < 3",
      "SELECT k FROM R WHERE k = \"even\"",
  };
  for (const std::string& sql : queries) {
    const Result<Mediator::QueryResult> a = plain->Query(sql);
    const Result<Mediator::QueryResult> b = guarded->Query(sql);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->plan->ToShortString(), b->plan->ToShortString()) << sql;
    EXPECT_EQ(a->estimated_cost, b->estimated_cost) << sql;
    ASSERT_EQ(a->rows.size(), b->rows.size()) << sql;
    for (const Row& row : a->rows.rows()) {
      EXPECT_TRUE(b->rows.Contains(row)) << sql;
    }
    EXPECT_TRUE(b->completeness.complete);
  }
  const Mediator::Stats stats = guarded->StatsSnapshot();
  EXPECT_EQ(stats.bounded.pages_fetched, 0u);
  EXPECT_EQ(stats.bounded.truncated_answers, 0u);
  EXPECT_EQ(stats.bounded.refinement_splits, 0u);
}

}  // namespace
}  // namespace gencompact
