#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "expr/condition_parser.h"
#include "mediator/mediator.h"
#include "ssdl/ssdl_parser.h"

namespace gencompact {
namespace {

constexpr const char* kSsdl = R"(
source cars(make: string, model: string, year: int,
            color: string, price: int) {
  cost 10.0 1.0;
  rule s1 -> make = $string and price < $int;
  rule s2 -> make = $string and color = $string;
  export s1 : {make, model, year, color};
  export s2 : {make, model, year};
}
)";

class MediatorFixture : public ::testing::Test {
 protected:
  MediatorFixture() {
    Result<SourceDescription> description = ParseSsdl(kSsdl);
    EXPECT_TRUE(description.ok());
    auto table = std::make_unique<Table>("cars", description->schema());
    const auto add = [&](const char* make, const char* model, int64_t year,
                         const char* color, int64_t price) {
      EXPECT_TRUE(table
                      ->AppendValues({Value::String(make), Value::String(model),
                                      Value::Int(year), Value::String(color),
                                      Value::Int(price)})
                      .ok());
    };
    add("BMW", "318i", 1996, "red", 21000);
    add("BMW", "528i", 1997, "black", 38000);
    add("Toyota", "Corolla", 1997, "red", 13000);
    add("Toyota", "Camry", 1998, "blue", 19000);
    EXPECT_TRUE(mediator_
                    .RegisterSource(std::move(description).value(),
                                    std::move(table))
                    .ok());
  }

  Mediator mediator_;
};

TEST(SqlParserTest, ParsesSelectList) {
  const Result<ParsedQuery> q =
      ParseSql("SELECT make, model FROM cars WHERE price < 5");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->select_list, (std::vector<std::string>{"make", "model"}));
  EXPECT_EQ(q->source, "cars");
  EXPECT_EQ(q->condition->ToString(), "price < 5");
}

TEST(SqlParserTest, SelectStarAndNoWhere) {
  const Result<ParsedQuery> q = ParseSql("select * from cars");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->select_list.empty());
  EXPECT_TRUE(q->condition->is_true());
}

TEST(SqlParserTest, KeywordsAreCaseInsensitive) {
  const Result<ParsedQuery> q =
      ParseSql("SeLeCt make FrOm cars WhErE make = \"BMW\"");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->source, "cars");
}

TEST(SqlParserTest, KeywordInsideStringLiteralIgnored) {
  const Result<ParsedQuery> q =
      ParseSql("SELECT make FROM cars WHERE make = \"from where\"");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->condition->atom().constant, Value::String("from where"));
}

TEST(SqlParserTest, RejectsMalformed) {
  EXPECT_FALSE(ParseSql("").ok());
  EXPECT_FALSE(ParseSql("FROM cars").ok());
  EXPECT_FALSE(ParseSql("SELECT make").ok());
  EXPECT_FALSE(ParseSql("SELECT FROM cars").ok());
  EXPECT_FALSE(ParseSql("SELECT make FROM").ok());
  EXPECT_FALSE(ParseSql("SELECT make FROM cars WHERE").ok());
}

TEST_F(MediatorFixture, EndToEndQuery) {
  const Result<Mediator::QueryResult> result = mediator_.Query(
      "SELECT model FROM cars WHERE "
      "(make = \"BMW\" and price < 40000) or "
      "(make = \"Toyota\" and price < 20000)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 4u);
  EXPECT_EQ(result->exec.source_queries, 2u);
  EXPECT_GT(result->true_cost, 0.0);
  EXPECT_GT(result->estimated_cost, 0.0);
}

TEST_F(MediatorFixture, UnknownSourceFails) {
  EXPECT_EQ(mediator_.Query("SELECT x FROM nope").status().code(),
            StatusCode::kNotFound);
}

TEST_F(MediatorFixture, UnknownAttributeFails) {
  EXPECT_EQ(
      mediator_.Query("SELECT vin FROM cars WHERE make = \"BMW\"").status().code(),
      StatusCode::kNotFound);
}

TEST_F(MediatorFixture, NoFeasiblePlanSurfacesAsStatus) {
  EXPECT_EQ(mediator_.Query("SELECT model FROM cars WHERE year = 1998")
                .status()
                .code(),
            StatusCode::kNoFeasiblePlan);
  // Refused at planning time: the source never saw a query.
  EXPECT_EQ(mediator_.StatsSnapshot().sources[0].source.queries_received, 0u);
}

TEST_F(MediatorFixture, ExplainReturnsValidatedPlan) {
  const Result<PlanPtr> plan = mediator_.Explain(
      "SELECT model FROM cars WHERE make = \"BMW\" and price < 30000",
      Strategy::kGenCompact);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ((*plan)->kind(), PlanNode::Kind::kSourceQuery);
}

TEST_F(MediatorFixture, ExplainTextMentionsOperators) {
  const Result<std::string> text = mediator_.ExplainText(
      "SELECT model FROM cars WHERE "
      "(make = \"BMW\" and price < 40000) or (make = \"Toyota\" and price < 20000)",
      Strategy::kGenCompact);
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("Union"), std::string::npos);
  EXPECT_NE(text->find("SourceQuery"), std::string::npos);
}

TEST_F(MediatorFixture, ExplainAnalyzeReportsEstimatedVsActual) {
  const Result<std::string> text = mediator_.ExplainAnalyze(
      "SELECT model FROM cars WHERE "
      "(make = \"BMW\" and price < 40000) or (make = \"Toyota\" and price < 20000)",
      Strategy::kGenCompact);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("estimated vs actual"), std::string::npos);
  EXPECT_NE(text->find("actual="), std::string::npos);
  EXPECT_NE(text->find("true cost"), std::string::npos);
}

TEST_F(MediatorFixture, ExplainAnalyzeUnsatisfiableShortCircuits) {
  const Result<std::string> text = mediator_.ExplainAnalyze(
      "SELECT model FROM cars WHERE make = \"BMW\" and make = \"Audi\"",
      Strategy::kGenCompact);
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("EmptyResult"), std::string::npos);
}

TEST_F(MediatorFixture, StrategiesCanDisagreeOnFeasibility) {
  // DISCO cannot split the disjunction and the source has no download.
  const std::string sql =
      "SELECT model FROM cars WHERE "
      "(make = \"BMW\" and price < 40000) or (make = \"Toyota\" and price < 20000)";
  EXPECT_TRUE(mediator_.Query(sql, Strategy::kGenCompact).ok());
  EXPECT_EQ(mediator_.Query(sql, Strategy::kDisco).status().code(),
            StatusCode::kNoFeasiblePlan);
}

TEST_F(MediatorFixture, NaiveStrategyRejectedAtExecution) {
  const std::string sql =
      "SELECT model FROM cars WHERE "
      "(make = \"BMW\" and price < 40000) or (make = \"Toyota\" and price < 20000)";
  const Result<Mediator::QueryResult> result =
      mediator_.Query(sql, Strategy::kNaive);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnsupported);
}

TEST_F(MediatorFixture, DuplicateRegistrationFails) {
  Result<SourceDescription> description = ParseSsdl(kSsdl);
  ASSERT_TRUE(description.ok());
  auto table = std::make_unique<Table>("cars", description->schema());
  EXPECT_FALSE(mediator_
                   .RegisterSource(std::move(description).value(),
                                   std::move(table))
                   .ok());
}

TEST_F(MediatorFixture, QueryConditionProgrammaticForm) {
  Result<ConditionPtr> cond = ParseCondition("make = \"BMW\" and price < 30000");
  ASSERT_TRUE(cond.ok());
  const Result<Mediator::QueryResult> result = mediator_.QueryCondition(
      "cars", *cond, {"model", "year"}, Strategy::kGenCompact);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 1u);  // 318i
}

TEST_F(MediatorFixture, StatsSnapshotSurfacesPerSourceEarleyItems) {
  const std::string sql =
      "SELECT model FROM cars WHERE make = \"BMW\" and price < 30000";
  ASSERT_TRUE(mediator_.Query(sql).ok());
  const Mediator::Stats stats = mediator_.StatsSnapshot();
  ASSERT_EQ(stats.sources.size(), 1u);
  // check_calls was always surfaced; the Earley item count behind it is the
  // matching work measure — planning this query had to parse something.
  EXPECT_GT(stats.sources[0].check_calls, 0u);
  EXPECT_GT(stats.sources[0].earley_items, 0u);
  EXPECT_EQ(stats.sources[0].description_epoch, 0u);

  // A plan-cache hit re-executes without re-planning: the enforcement
  // Check hits the wrapper Checker's memo, so no new items accrue.
  const size_t items_after_first = stats.sources[0].earley_items;
  ASSERT_TRUE(mediator_.Query(sql).ok());
  EXPECT_EQ(mediator_.StatsSnapshot().sources[0].earley_items,
            items_after_first);
}

// A web form's traffic: after one warm-up query, every query of the same
// shape with new constants misses the plan cache but reuses the source's
// plan template, so the only Check calls it makes are the validation of
// its plan's source queries.
TEST_F(MediatorFixture, NewConstantsReuseThePlanTemplate) {
  const auto sql = [](int bmw_price, int toyota_price) {
    return "SELECT model FROM cars WHERE (make = \"BMW\" and price < " +
           std::to_string(bmw_price) +
           ") or (make = \"Toyota\" and price < " +
           std::to_string(toyota_price) + ")";
  };
  ASSERT_TRUE(mediator_.Query(sql(30000, 15000)).ok());  // warm-up: builds
  const Mediator::Stats before = mediator_.StatsSnapshot();
  ASSERT_EQ(before.sources.size(), 1u);
  EXPECT_EQ(before.sources[0].plan_templates, 1u);
  EXPECT_EQ(before.sources[0].template_builds, 1u);
  EXPECT_EQ(before.sources[0].template_hits, 0u);

  constexpr int kQueries = 5;
  size_t validated_queries = 0;
  for (int i = 1; i <= kQueries; ++i) {
    const Result<Mediator::QueryResult> result =
        mediator_.Query(sql(30000 + 1000 * i, 15000 + 1000 * i));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    validated_queries += result->plan->CountSourceQueries();
  }
  const Mediator::Stats stats = mediator_.StatsSnapshot();
  const Mediator::Stats::PerSource& now = stats.sources[0];
  const Mediator::Stats::PerSource& then = before.sources[0];
  EXPECT_EQ(stats.plan_cache.misses, before.plan_cache.misses + kQueries);
  EXPECT_EQ(now.plan_templates, 1u);
  EXPECT_EQ(now.template_builds, 1u);
  EXPECT_EQ(now.template_hits, static_cast<uint64_t>(kQueries));
  EXPECT_EQ(now.check_calls - then.check_calls, validated_queries);
  EXPECT_EQ(now.earley_items, then.earley_items);

  const std::string text = stats.ToString();
  EXPECT_NE(text.find("source[cars].plan_templates 1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("source[cars].template_builds 1"), std::string::npos);
  EXPECT_NE(text.find("source[cars].template_hits 5"), std::string::npos);
}

// Section 2's generic-relational wrapper is a one-source Mediator: any
// select-project query over a limited source is simplified, planned with
// GenCompact in safe mode, validated and executed exactly.
class WrapperFixture : public ::testing::Test {
 protected:
  WrapperFixture() {
    Result<SourceDescription> description = ParseSsdl(R"(
        source books(author: string, title: string, price: int) {
          cost 10.0 1.0;
          rule f -> author = $string
                  | title contains $string
                  | author = $string and title contains $string;
          export f : {author, title, price};
        })");
    EXPECT_TRUE(description.ok());
    auto table = std::make_unique<Table>("books", description->schema());
    const auto add = [&](const char* author, const char* title,
                         int64_t price) {
      EXPECT_TRUE(table
                      ->AppendValues({Value::String(author),
                                      Value::String(title), Value::Int(price)})
                      .ok());
    };
    add("Freud", "the interpretation of dreams", 12);
    add("Freud", "civilization", 11);
    add("Jung", "memories dreams reflections", 14);
    add("Lem", "solaris", 9);
    EXPECT_TRUE(mediator_
                    .RegisterSource(std::move(description).value(),
                                    std::move(table))
                    .ok());
  }

  Mediator mediator_;
};

TEST_F(WrapperFixture, AnswersDirectlySupportedQuery) {
  const Result<Mediator::QueryResult> result =
      mediator_.Query("SELECT title FROM books WHERE author = \"Freud\"");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 2u);
  EXPECT_EQ(result->exec.source_queries, 1u);
}

TEST_F(WrapperFixture, AnswersUnsupportedShapeViaPlanning) {
  // Disjunction of authors: not supported by the form, but planning
  // provides generic relational capability by splitting it.
  const Result<Mediator::QueryResult> result = mediator_.Query(
      "SELECT author, title FROM books WHERE "
      "(author = \"Freud\" or author = \"Jung\") and title contains "
      "\"dreams\"");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 2u);
  // On this tiny catalog a single `title contains` query is cheapest; the
  // point is that an unsupported shape was answered at all.
  EXPECT_GE(result->exec.source_queries, 1u);
  EXPECT_EQ(mediator_.StatsSnapshot().fault_tolerance.queries_ok, 1u);
}

TEST_F(WrapperFixture, UnsatisfiableConditionSkipsSource) {
  const Result<Mediator::QueryResult> result = mediator_.Query(
      "SELECT title FROM books WHERE author = \"Freud\" and author = "
      "\"Jung\"");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->rows.empty());
  // Answered without a plan and without contacting the source.
  EXPECT_EQ(result->plan, nullptr);
  EXPECT_EQ(result->exec.source_queries, 0u);
  EXPECT_EQ(mediator_.StatsSnapshot().sources[0].source.queries_received, 0u);
}

TEST_F(WrapperFixture, SimplificationEnablesOtherwiseInfeasibleQuery) {
  // (author = F and author = F) collapses to one supported atom.
  const Result<Mediator::QueryResult> result = mediator_.Query(
      "SELECT title FROM books WHERE author = \"Freud\" and author = "
      "\"Freud\"");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 2u);
}

TEST_F(WrapperFixture, GenuinelyInfeasibleReportsNoPlan) {
  // price predicates are unsupported and the source has no download.
  EXPECT_EQ(mediator_.Query("SELECT title FROM books WHERE price < 10")
                .status()
                .code(),
            StatusCode::kNoFeasiblePlan);
  EXPECT_EQ(mediator_.StatsSnapshot().sources[0].source.queries_received, 0u);
}

TEST_F(WrapperFixture, EmptyAttrListMeansAllAttributes) {
  const Result<Mediator::QueryResult> result = mediator_.QueryCondition(
      "books", *ParseCondition("author = \"Lem\""), {},
      Strategy::kGenCompact);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows.layout().width(), 3u);
}

TEST_F(WrapperFixture, MalformedConditionTextFails) {
  EXPECT_EQ(mediator_.Query("SELECT title FROM books WHERE author = ")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(mediator_.Query("SELECT bogus FROM books WHERE author = \"x\"")
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(MediatorShapeMemoTest, NewConstantsHitTheMemoAfterPlanEviction) {
  Result<SourceDescription> description = ParseSsdl(kSsdl);
  ASSERT_TRUE(description.ok());
  auto table = std::make_unique<Table>("cars", description->schema());
  ASSERT_TRUE(table
                  ->AppendValues({Value::String("BMW"), Value::String("318i"),
                                  Value::Int(1996), Value::String("red"),
                                  Value::Int(21000)})
                  .ok());

  Mediator::Options options;
  // A one-entry plan cache forces eviction, which releases the cached
  // plan's pinned conditions; the recurring form then plans from scratch.
  options.cache_capacity = 1;
  options.cache_shards = 1;
  Mediator mediator(options);
  ASSERT_TRUE(
      mediator.RegisterSource(std::move(description).value(), std::move(table))
          .ok());

  ASSERT_TRUE(
      mediator.Query("SELECT model FROM cars WHERE make = \"BMW\" and "
                     "price < 30000")
          .ok());
  // A different form evicts the first plan (capacity 1).
  ASSERT_TRUE(
      mediator.Query("SELECT year FROM cars WHERE make = \"BMW\" and "
                     "color = \"red\"")
          .ok());
  const Mediator::Stats before = mediator.StatsSnapshot();
  // The first form again, with new constants: a plan-cache miss, but every
  // Check the planner asks is a shape the memo already holds.
  ASSERT_TRUE(
      mediator.Query("SELECT model FROM cars WHERE make = \"Audi\" and "
                     "price < 45000")
          .ok());
  const Mediator::Stats stats = mediator.StatsSnapshot();
  EXPECT_EQ(stats.plan_cache.misses, before.plan_cache.misses + 1);
  ASSERT_EQ(stats.sources.size(), 1u);
  const Mediator::Stats::PerSource& now = stats.sources[0];
  const Mediator::Stats::PerSource& then = before.sources[0];
  EXPECT_GT(now.check_calls, then.check_calls);
  EXPECT_EQ(now.check_memo_hits - then.check_memo_hits,
            now.check_calls - then.check_calls);
  EXPECT_EQ(now.earley_items, then.earley_items);
  EXPECT_EQ(now.check_shapes, then.check_shapes);
  EXPECT_GT(now.check_shapes, 0u);

  // The observability surface names the memo counters.
  const std::string text = stats.ToString();
  EXPECT_NE(text.find("check_hits"), std::string::npos);
  EXPECT_NE(text.find("check_shapes"), std::string::npos);
  EXPECT_NE(text.find("earley_items"), std::string::npos);
}

TEST(MediatorConcurrencyTest, ConcurrentClientsGetIdenticalAnswers) {
  Result<SourceDescription> description = ParseSsdl(kSsdl);
  ASSERT_TRUE(description.ok());
  auto table = std::make_unique<Table>("cars", description->schema());
  const auto add = [&](const char* make, const char* model, int64_t year,
                       const char* color, int64_t price) {
    ASSERT_TRUE(table
                    ->AppendValues({Value::String(make), Value::String(model),
                                    Value::Int(year), Value::String(color),
                                    Value::Int(price)})
                    .ok());
  };
  add("BMW", "318i", 1996, "red", 21000);
  add("BMW", "528i", 1997, "black", 38000);
  add("Toyota", "Corolla", 1997, "red", 13000);
  add("Toyota", "Camry", 1998, "blue", 19000);

  Mediator::Options options;
  options.num_threads = 4;
  options.cache_shards = 8;
  Mediator mediator(options);
  ASSERT_TRUE(
      mediator.RegisterSource(std::move(description).value(), std::move(table))
          .ok());

  const std::vector<std::string> queries = {
      "SELECT model FROM cars WHERE make = \"BMW\" and price < 30000",
      "SELECT model FROM cars WHERE (make = \"BMW\" and price < 30000) or "
      "(make = \"Toyota\" and price < 15000)",
      "SELECT model FROM cars WHERE make = \"Toyota\" and color = \"red\"",
  };
  const std::vector<size_t> expected_rows = {1, 2, 1};

  constexpr size_t kClients = 8;
  constexpr size_t kRounds = 25;
  std::vector<std::thread> clients;
  std::vector<size_t> failures(kClients, 0);
  for (size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([t, &mediator, &queries, &expected_rows, &failures]() {
      for (size_t round = 0; round < kRounds; ++round) {
        const size_t q = (round + t) % queries.size();
        const Result<Mediator::QueryResult> result = mediator.Query(queries[q]);
        if (!result.ok() || result->rows.size() != expected_rows[q]) {
          ++failures[t];
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  for (size_t t = 0; t < kClients; ++t) EXPECT_EQ(failures[t], 0u) << t;

  // 3 distinct (query, strategy) keys were ever planned; everything else hit.
  EXPECT_EQ(mediator.plan_cache().size(), queries.size());
  EXPECT_GT(mediator.plan_cache().hit_rate(), 0.9);
}

TEST(MediatorOverlapTest, BlockingUnionOverlapsRoundTripsInVirtualTime) {
  // No worker threads and a FakeClock: a blocking query pumps its own event
  // loop, so the union's two 10ms round trips are timers that overlap — the
  // answer lands after exactly 10ms of virtual time, not 20.
  Result<SourceDescription> description = ParseSsdl(kSsdl);
  ASSERT_TRUE(description.ok());
  auto table = std::make_unique<Table>("cars", description->schema());
  ASSERT_TRUE(table
                  ->AppendValues({Value::String("BMW"), Value::String("318i"),
                                  Value::Int(1996), Value::String("red"),
                                  Value::Int(21000)})
                  .ok());
  ASSERT_TRUE(table
                  ->AppendValues({Value::String("Toyota"),
                                  Value::String("Corolla"), Value::Int(1997),
                                  Value::String("red"), Value::Int(13000)})
                  .ok());
  FakeClock clock;
  Mediator::Options options;
  options.num_threads = 0;
  options.clock = &clock;
  Mediator mediator(options);
  ASSERT_TRUE(
      mediator.RegisterSource(std::move(description).value(), std::move(table))
          .ok());
  Result<CatalogEntry*> entry = mediator.catalog()->Find("cars");
  ASSERT_TRUE(entry.ok());
  (*entry)->source()->set_simulated_latency(std::chrono::milliseconds(10));

  const auto start = clock.Now();
  const Result<Mediator::QueryResult> result = mediator.Query(
      "SELECT model FROM cars WHERE (make = \"BMW\" and price < 30000) or "
      "(make = \"Toyota\" and price < 15000)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 2u);
  EXPECT_EQ(result->exec.source_queries, 2u);
  EXPECT_EQ(clock.Now() - start, std::chrono::milliseconds(10));
}

}  // namespace
}  // namespace gencompact
