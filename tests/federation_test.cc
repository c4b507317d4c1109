// Federated joins: parsing, planning, execution, row-vs-batch data-plane
// parity, mediator dispatch and accounting, and the fault interactions — a
// breaker tripping mid-join, a paged result-bounded relation inside a
// 3-source join, failover of a bound relation to a replica, the whole-join
// deadline, and the avoid-set replan that adopts an alternate join order
// after a leaf failure. Every schedule but the deadline's runs on a
// FakeClock.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "exec/fault_policy.h"
#include "expr/condition_parser.h"
#include "mediator/federation.h"
#include "mediator/mediator.h"
#include "mediator/sql_parser.h"
#include "ssdl/ssdl_parser.h"

namespace gencompact {
namespace {

// cars: independent fetches by make/price, bindable on make (value lists).
// `extra` parameterizes the description (e.g. a result bound) per test.
constexpr const char* kCarsSsdlTemplate = R"(
  source cars(make: string, model: string, price: int) {
    cost 10.0 1.0;
    %s
    rule mlist -> make = $string or make = $string
                | make = $string or mlist;
    rule f -> make = $string
            | mlist
            | ( mlist )
            | price < $int
            | make = $string and price < $int;
    export f : {make, model, price};
  })";

// dealers: bind-only — every query must name a make (or a list of makes);
// there is no independent download.
constexpr const char* kDealersSsdl = R"(
  source dealers(make: string, city: string, rating: int) {
    cost 5.0 1.0;
    rule mlist -> make = $string or make = $string
                | make = $string or mlist;
    rule f -> make = $string
            | mlist
            | ( mlist )
            | make = $string and rating >= $int
            | ( mlist ) and rating >= $int;
    export f : {make, city, rating};
  })";

// reviews: independent fetches by score, bindable on model. `extra`
// parameterizes the description (e.g. a result bound) per test.
constexpr const char* kReviewsSsdlTemplate = R"(
  source reviews(model: string, score: int) {
    cost 10.0 1.0;
    %s
    rule mlist -> model = $string or model = $string
                | model = $string or mlist;
    rule f -> model = $string
            | mlist
            | ( mlist )
            | score >= $int
            | score >= $int and ( mlist )
            | score >= $int and model = $string
            | ( mlist ) and score >= $int
            | model = $string and score >= $int;
    export f : {model, score};
  })";

constexpr const char* kThreeWaySql =
    "SELECT cars.model, dealers.city, reviews.score FROM cars "
    "JOIN dealers ON cars.make = dealers.make "
    "JOIN reviews ON cars.model = reviews.model "
    "WHERE cars.price < 30000 and reviews.score >= 4";

// Ground truth for kThreeWaySql over the fixture tables:
//   (318i, Palo Alto, 4), (318i, San Jose, 4), (Camry, Palo Alto, 5).
constexpr size_t kThreeWayRows = 3;

std::vector<std::string> Signature(const RowSet& rows) {
  std::vector<std::string> out;
  for (const Row& row : rows.SortedRows()) {
    std::string sig;
    for (const Value& v : row.values()) {
      sig += ValueTypeName(v.type());
      sig += ':';
      sig += v.ToString();
      sig += '|';
    }
    out.push_back(std::move(sig));
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Registers the dealer directory under `name`: "dealers", or a replica with
// the same schema and rows.
void RegisterDealers(Mediator* mediator, const std::string& name) {
  std::string ssdl = kDealersSsdl;
  ssdl.replace(ssdl.find("dealers"), std::string("dealers").size(), name);
  Result<SourceDescription> dealers = ParseSsdl(ssdl);
  ASSERT_TRUE(dealers.ok()) << dealers.status().ToString();
  auto dealers_table = std::make_unique<Table>(name, dealers->schema());
  const auto add_dealer = [&](const char* make, const char* city,
                              int64_t rating) {
    ASSERT_TRUE(dealers_table
                    ->AppendValues({Value::String(make), Value::String(city),
                                    Value::Int(rating)})
                    .ok());
  };
  add_dealer("BMW", "Palo Alto", 5);
  add_dealer("BMW", "San Jose", 3);
  add_dealer("Toyota", "Palo Alto", 4);
  add_dealer("Honda", "Fremont", 4);
  ASSERT_TRUE(mediator
                  ->RegisterSource(std::move(dealers).value(),
                                   std::move(dealers_table))
                  .ok());
}

// Registers the reviews source under `name` ("reviews", or a replica),
// with `extra` spliced into its description.
void RegisterReviews(Mediator* mediator, const std::string& name,
                     const std::string& extra) {
  char reviews_ssdl[1024];
  std::snprintf(reviews_ssdl, sizeof(reviews_ssdl), kReviewsSsdlTemplate,
                extra.c_str());
  std::string ssdl = reviews_ssdl;
  ssdl.replace(ssdl.find("reviews"), std::string("reviews").size(), name);
  Result<SourceDescription> reviews = ParseSsdl(ssdl);
  ASSERT_TRUE(reviews.ok()) << reviews.status().ToString();
  auto reviews_table = std::make_unique<Table>(name, reviews->schema());
  const auto add_review = [&](const char* model, int64_t score) {
    ASSERT_TRUE(
        reviews_table->AppendValues({Value::String(model), Value::Int(score)})
            .ok());
  };
  add_review("318i", 4);
  add_review("528i", 5);
  add_review("Corolla", 3);
  add_review("Camry", 5);
  add_review("900", 4);
  ASSERT_TRUE(mediator
                  ->RegisterSource(std::move(reviews).value(),
                                   std::move(reviews_table))
                  .ok());
}

void RegisterFixtureSources(Mediator* mediator,
                            const std::string& reviews_extra = "",
                            const std::string& cars_extra = "") {
  char cars_ssdl[1024];
  std::snprintf(cars_ssdl, sizeof(cars_ssdl), kCarsSsdlTemplate,
                cars_extra.c_str());
  Result<SourceDescription> cars = ParseSsdl(cars_ssdl);
  ASSERT_TRUE(cars.ok()) << cars.status().ToString();

  auto cars_table = std::make_unique<Table>("cars", cars->schema());
  const auto add_car = [&](const char* make, const char* model,
                           int64_t price) {
    ASSERT_TRUE(cars_table
                    ->AppendValues({Value::String(make), Value::String(model),
                                    Value::Int(price)})
                    .ok());
  };
  add_car("BMW", "318i", 21000);
  add_car("BMW", "528i", 38000);
  add_car("Toyota", "Corolla", 13000);
  add_car("Toyota", "Camry", 19000);
  add_car("Saab", "900", 16000);

  ASSERT_TRUE(
      mediator->RegisterSource(std::move(cars).value(), std::move(cars_table))
          .ok());
  RegisterDealers(mediator, "dealers");
  RegisterReviews(mediator, "reviews", reviews_extra);
}

class FederationFixture : public ::testing::Test {
 protected:
  FederationFixture() {
    Mediator::Options options;
    options.partial_results = true;
    options.clock = &clock_;
    mediator_ = std::make_unique<Mediator>(options);
    RegisterFixtureSources(mediator_.get());
    entries_ = {*mediator_->catalog()->Find("cars"),
                *mediator_->catalog()->Find("dealers"),
                *mediator_->catalog()->Find("reviews")};
  }

  FederatedQuery ThreeWayQuery() {
    FederatedQuery query;
    query.sources = {"cars", "dealers", "reviews"};
    query.keys = {{"cars.make", "dealers.make"},
                  {"cars.model", "reviews.model"}};
    query.condition =
        std::move(ParseCondition(
                      "cars.price < 30000 and reviews.score >= 4"))
            .value();
    query.select = {"cars.model", "dealers.city", "reviews.score"};
    return query;
  }

  FakeClock clock_;
  std::unique_ptr<Mediator> mediator_;
  std::vector<CatalogEntry*> entries_;
};

// ---------------------------------------------------------------------------
// Federated SQL parsing
// ---------------------------------------------------------------------------

TEST(ParseFederatedSqlTest, ParsesThreeSourceChain) {
  const Result<ParsedFederatedQuery> parsed = ParseFederatedSql(kThreeWaySql);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->sources,
            (std::vector<std::string>{"cars", "dealers", "reviews"}));
  ASSERT_EQ(parsed->keys.size(), 2u);
  EXPECT_EQ(parsed->keys[0].first, "cars.make");
  EXPECT_EQ(parsed->keys[1].second, "reviews.model");
  EXPECT_EQ(parsed->select_list.size(), 3u);
  EXPECT_FALSE(parsed->condition->is_true());
}

TEST(ParseFederatedSqlTest, MultiKeyOnClause) {
  const Result<ParsedFederatedQuery> parsed = ParseFederatedSql(
      "SELECT * FROM a JOIN b ON a.x = b.x AND a.y = b.y JOIN c ON b.x = c.x");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->sources.size(), 3u);
  EXPECT_EQ(parsed->keys.size(), 3u);
  EXPECT_TRUE(parsed->condition->is_true());
}

TEST(ParseFederatedSqlTest, RejectsDuplicateSourcesAndMissingOn) {
  EXPECT_FALSE(
      ParseFederatedSql("SELECT * FROM a JOIN a ON a.x = a.y").ok());
  EXPECT_FALSE(
      ParseFederatedSql("SELECT * FROM a JOIN b ON a.x = b.x JOIN c").ok());
}

TEST(ParseFederatedSqlTest, TwoSourceFullForm) {
  const Result<ParsedFederatedQuery> parsed = ParseFederatedSql(
      "SELECT cars.model, dealers.city FROM cars JOIN dealers "
      "ON cars.make = dealers.make AND cars.year = dealers.since "
      "WHERE cars.price < 30000");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->sources, (std::vector<std::string>{"cars", "dealers"}));
  ASSERT_EQ(parsed->keys.size(), 2u);
  EXPECT_EQ(parsed->keys[0].first, "cars.make");
  EXPECT_EQ(parsed->keys[1].second, "dealers.since");
  EXPECT_EQ(parsed->select_list.size(), 2u);
  EXPECT_EQ(parsed->condition->ToString(), "cars.price < 30000");
}

TEST(ParseFederatedSqlTest, TwoSourceWithoutWhereClause) {
  const Result<ParsedFederatedQuery> parsed =
      ParseFederatedSql("SELECT * FROM a JOIN b ON a.x = b.y");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->sources, (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(parsed->select_list.empty());
  EXPECT_TRUE(parsed->condition->is_true());
}

TEST(ParseFederatedSqlTest, RejectsMalformedTwoSourceJoin) {
  EXPECT_FALSE(ParseFederatedSql("SELECT * FROM a JOIN b").ok());
  EXPECT_FALSE(ParseFederatedSql("SELECT * FROM a JOIN b ON a.x").ok());
  EXPECT_FALSE(ParseFederatedSql("FROM a JOIN b ON a.x = b.y").ok());
}

// ---------------------------------------------------------------------------
// Planning and execution
// ---------------------------------------------------------------------------

TEST_F(FederationFixture, OutputSchemaQualifiesEveryRelation) {
  FederationProcessor processor(entries_);
  const Result<Schema> schema = processor.OutputSchema(ThreeWayQuery());
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  EXPECT_EQ(schema->num_attributes(), 8u);
  EXPECT_TRUE(schema->IndexOf("cars.make").has_value());
  EXPECT_TRUE(schema->IndexOf("dealers.city").has_value());
  EXPECT_TRUE(schema->IndexOf("reviews.score").has_value());
}

TEST_F(FederationFixture, PlanEnumeratesTheQueryGraph) {
  FederationProcessor processor(entries_);
  const Result<FederationPlanOutcome> outcome =
      processor.Plan(ThreeWayQuery());
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->graph.size(), 3u);
  EXPECT_EQ(outcome->graph.edges.size(), 2u);
  EXPECT_GT(outcome->estimated_cost, 0.0);
  EXPECT_GT(outcome->enumeration.stats.subsets_expanded, 0u);
  // The rendered tree names every relation.
  EXPECT_NE(outcome->tree.find("cars"), std::string::npos);
  EXPECT_NE(outcome->tree.find("dealers"), std::string::npos);
  EXPECT_NE(outcome->tree.find("reviews"), std::string::npos);
  // dealers is bind-only (no download): its independent fetch is infeasible
  // and its leaf plan absent.
  EXPECT_LT(outcome->graph.fetch_cost[1], 0.0);
  EXPECT_EQ(outcome->leaf_plans[1], nullptr);
}

TEST_F(FederationFixture, ExecutesThreeWayGroundTruth) {
  FederationProcessor processor(entries_);
  const Result<RowSet> rows = processor.Execute(ThreeWayQuery());
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), kThreeWayRows);
  EXPECT_GE(processor.stats().bind_batches, 1u);  // dealers must be bound
  EXPECT_EQ(processor.stats().joined_rows, kThreeWayRows);
}

TEST_F(FederationFixture, MixedResidualEvaluatesAtTheRoot) {
  FederatedQuery query = ThreeWayQuery();
  // A disjunction spanning cars and reviews cannot push down anywhere.
  query.condition =
      std::move(ParseCondition("cars.price < 30000 and "
                               "(cars.price < 15000 or reviews.score >= 5)"))
          .value();
  FederationProcessor processor(entries_);
  const Result<FederationPlanOutcome> outcome = processor.Plan(query);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_FALSE(outcome->residual->is_true());

  const Result<RowSet> rows = processor.Execute(query);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  // price < 30000 joins: 318i (21000, score 4), Corolla (13000, score 3),
  // Camry (19000, score 5), each × their make's dealers. The residual keeps
  // Corolla (price < 15000; Toyota dealer Palo Alto) and Camry (score 5).
  EXPECT_EQ(rows->size(), 2u);
}

TEST_F(FederationFixture, ErrorsAreDiagnosable) {
  FederationProcessor processor(entries_);
  FederatedQuery query = ThreeWayQuery();
  query.condition = std::move(ParseCondition("cars.bogus = 1")).value();
  EXPECT_EQ(processor.Plan(query).status().code(), StatusCode::kNotFound);

  query = ThreeWayQuery();
  query.keys = {{"cars.make", "dealers.make"}};  // reviews disconnected
  EXPECT_EQ(processor.Plan(query).status().code(),
            StatusCode::kInvalidArgument);

  query = ThreeWayQuery();
  FederationOptions force;
  force.force_method = EdgeMethod::kBind;
  FederationProcessor forced(entries_, force);
  // force_method applies to two-relation queries only.
  EXPECT_EQ(forced.Plan(query).status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Row-vs-batch data-plane parity (PR 6 follow-through)
// ---------------------------------------------------------------------------

TEST_F(FederationFixture, RowAndBatchPlanesAgree) {
  FederationOptions row_options;
  row_options.exec.batch_width = 0;
  FederationProcessor row_processor(entries_, row_options);
  const Result<RowSet> row_rows = row_processor.Execute(ThreeWayQuery());
  ASSERT_TRUE(row_rows.ok()) << row_rows.status().ToString();

  for (const size_t width : {1u, 3u, 64u}) {
    FederationOptions batch_options;
    batch_options.exec.batch_width = width;
    FederationProcessor batch_processor(entries_, batch_options);
    const Result<RowSet> batch_rows =
        batch_processor.Execute(ThreeWayQuery());
    ASSERT_TRUE(batch_rows.ok())
        << "width " << width << ": " << batch_rows.status().ToString();
    EXPECT_EQ(Signature(*row_rows), Signature(*batch_rows))
        << "width " << width;
  }
  EXPECT_EQ(row_rows->size(), kThreeWayRows);
}

// ---------------------------------------------------------------------------
// Mediator dispatch and observability
// ---------------------------------------------------------------------------

TEST_F(FederationFixture, MediatorDispatchesThreeSourceSql) {
  const Result<Mediator::QueryResult> result = mediator_->Query(kThreeWaySql);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), kThreeWayRows);
  EXPECT_TRUE(result->completeness.complete);
  EXPECT_GE(result->exec.source_queries, 3u);
  EXPECT_GT(result->true_cost, 0.0);
  EXPECT_GT(result->estimated_cost, 0.0);

  const Mediator::Stats stats = mediator_->StatsSnapshot();
  EXPECT_EQ(stats.join.federated_queries, 1u);
  EXPECT_GT(stats.join.plans_enumerated, 0u);
  EXPECT_GT(stats.join.dp_subsets_expanded, 0u);
  EXPECT_GE(stats.join.bind_edges_chosen, 1u);  // dealers is bind-only
  EXPECT_EQ(stats.join.greedy_fallbacks, 0u);
  // The /varz rendering carries the join block once federated queries ran.
  EXPECT_NE(stats.ToString().find("join.federated_queries"),
            std::string::npos);
}

TEST_F(FederationFixture, BindOnlyFirstRelationIsBoundFromTheSecond) {
  // dealers comes first in FROM order but cannot be fetched on its own (no
  // download; every query must name a make): the enumerator drives the join
  // from cars and binds dealers.
  const Result<Mediator::QueryResult> result = mediator_->Query(
      "SELECT cars.model, dealers.city FROM dealers JOIN cars "
      "ON dealers.make = cars.make WHERE cars.price < 30000");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 4u);
  EXPECT_TRUE(result->completeness.complete);
  EXPECT_EQ(mediator_->StatsSnapshot().join.bind_edges_chosen, 1u);
}

TEST_F(FederationFixture, JoinsCountInQueryTotals) {
  const Mediator::Stats before = mediator_->StatsSnapshot();
  ASSERT_TRUE(mediator_
                  ->Query("SELECT cars.model, dealers.city FROM cars JOIN "
                          "dealers ON cars.make = dealers.make "
                          "WHERE cars.price < 30000")
                  .ok());
  ASSERT_TRUE(mediator_->Query(kThreeWaySql).ok());
  Mediator::Stats stats = mediator_->StatsSnapshot();
  EXPECT_EQ(stats.fault_tolerance.queries_ok, 2u);
  EXPECT_EQ(stats.fault_tolerance.queries_failed, 0u);

  // A join whose reviews source is in an outage fails, and counts as such.
  FaultPolicy dead;
  dead.outages.push_back({0, 1000000});
  entries_[2]->source()->set_fault_policy(dead);
  EXPECT_FALSE(mediator_->Query(kThreeWaySql).ok());
  clock_.Advance(std::chrono::seconds(1));
  stats = mediator_->StatsSnapshot();
  EXPECT_EQ(stats.fault_tolerance.queries_ok, 2u);
  EXPECT_EQ(stats.fault_tolerance.queries_failed, 1u);
  const Mediator::Stats::Rates rates = stats.DiffSince(before);
  EXPECT_DOUBLE_EQ(rates.qps, 3.0);
  EXPECT_NEAR(rates.success_rate, 2.0 / 3.0, 1e-9);
}

// ---------------------------------------------------------------------------
// Fault interactions
// ---------------------------------------------------------------------------

TEST_F(FederationFixture, BreakerTripsMidJoin) {
  // Fresh mediator with breakers on and a dead reviews source: the 3-way
  // join must fail (reviews is not an ∨-branch), the breaker must trip from
  // the join's own retries, and the next query must be rejected by the
  // breaker without burning source calls.
  FakeClock clock;
  Mediator::Options options;
  options.clock = &clock;
  options.enable_circuit_breaker = true;
  options.breaker.failure_threshold = 2;
  options.breaker.open_duration = std::chrono::microseconds(50000);
  options.retry.max_attempts = 2;
  options.retry.backoff.base = std::chrono::microseconds(1);
  options.retry.backoff.cap = std::chrono::microseconds(2);
  Mediator mediator(options);
  RegisterFixtureSources(&mediator);

  CatalogEntry* reviews = *mediator.catalog()->Find("reviews");
  FaultPolicy dead;
  dead.outages.push_back({0, 1000000});
  reviews->source()->set_fault_policy(dead);

  const Result<Mediator::QueryResult> first = mediator.Query(kThreeWaySql);
  EXPECT_FALSE(first.ok());
  ASSERT_NE(reviews->breaker(), nullptr);
  EXPECT_EQ(reviews->breaker()->state(), CircuitBreaker::State::kOpen);

  const uint64_t calls_after_first =
      reviews->source()->fault_injector()->stats().calls;
  const Result<Mediator::QueryResult> second = mediator.Query(kThreeWaySql);
  EXPECT_FALSE(second.ok());
  // The open breaker rejected the second query's reviews fetches up front.
  EXPECT_EQ(reviews->source()->fault_injector()->stats().calls,
            calls_after_first);
  EXPECT_GT(mediator.StatsSnapshot().fault_tolerance.breaker_rejections, 0u);

  // Healthy sources are unaffected: a two-source join that never touches
  // reviews still answers.
  const Result<Mediator::QueryResult> healthy = mediator.Query(
      "SELECT cars.model, dealers.city FROM cars JOIN dealers "
      "ON cars.make = dealers.make WHERE cars.price < 30000");
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  EXPECT_EQ(healthy->rows.size(), 4u);
}

TEST_F(FederationFixture, PagedBoundedRelationInsideThreeWayJoin) {
  // reviews declares `bound 2 page 2`: every fetch of it is chunked into
  // bounded pages. The paging loop must recover exactness inside the join —
  // same answer, completeness intact, pages actually driven.
  FakeClock clock;
  Mediator::Options options;
  options.partial_results = true;
  options.clock = &clock;
  Mediator mediator(options);
  RegisterFixtureSources(&mediator, "bound 2 page 2;");

  const Result<Mediator::QueryResult> result = mediator.Query(kThreeWaySql);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), kThreeWayRows);
  EXPECT_TRUE(result->completeness.complete)
      << "paging must recover exactness, not truncate";
  EXPECT_GT(result->exec.pages_fetched, 0u);
  EXPECT_GT(mediator.StatsSnapshot().bounded.pages_fetched, 0u);
}

TEST_F(FederationFixture, UnpagedBoundMarksTheJoinPartial) {
  // Without paging a bound silently drops rows at the source — the federated
  // answer must surface that as a truncation marker, never as a
  // complete-looking subset. The bound goes on cars: its single-atom
  // pushdown (price < 30000, 4 true rows) cannot be refined into
  // under-bound pieces, so truncation is unavoidable. (A bound on a
  // bind-side value list would be legitimately recovered by splitting the
  // list — the planner's exactness strategies are tested elsewhere.)
  FakeClock clock;
  Mediator::Options options;
  options.partial_results = true;
  options.clock = &clock;
  Mediator mediator(options);
  RegisterFixtureSources(&mediator, /*reviews_extra=*/"",
                         /*cars_extra=*/"bound 2;");

  const Result<Mediator::QueryResult> result = mediator.Query(kThreeWaySql);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_LT(result->rows.size(), kThreeWayRows);
  EXPECT_FALSE(result->completeness.complete);
  ASSERT_FALSE(result->completeness.truncated_sources.empty());
  bool names_cars = false;
  for (const Mediator::TruncatedSource& marker :
       result->completeness.truncated_sources) {
    if (marker.source == "cars") names_cars = true;
  }
  EXPECT_TRUE(names_cars);
}

TEST(FederationFailoverTest, BoundRelationFallsOverToItsReplica) {
  // dealers is reached only through bind batches. With it down, the
  // three-way join re-binds against `mirror`, a replica exporting the same
  // schema; the relation keeps its name in the answer.
  FakeClock clock;
  Mediator::Options options;
  options.clock = &clock;
  options.join_failover = true;
  Mediator mediator(options);
  RegisterFixtureSources(&mediator);
  RegisterDealers(&mediator, "mirror");
  Source* dealers = (*mediator.catalog()->Find("dealers"))->source();
  Source* mirror = (*mediator.catalog()->Find("mirror"))->source();
  FaultPolicy dead;
  dead.outages.push_back({0, 1000000});
  dealers->set_fault_policy(dead);

  const Result<Mediator::QueryResult> result = mediator.Query(kThreeWaySql);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), kThreeWayRows);
  EXPECT_TRUE(result->completeness.complete);
  EXPECT_EQ(mediator.StatsSnapshot().fault_tolerance.join_failovers, 1u);
  EXPECT_GT(dealers->stats().queries_unavailable, 0u);
  EXPECT_GT(mirror->stats().queries_answered, 0u);
}

TEST(FederationCompletenessTest, EveryTruncatedBindBatchMarksTheAnswer) {
  // reviews, bounded to one row per response, is bound in two batches of
  // two models each, and both responses come back truncated. Each must
  // leave a marker, not only the last batch's.
  FakeClock clock;
  Mediator::Options options;
  options.clock = &clock;
  Mediator mediator(options);
  RegisterFixtureSources(&mediator, /*reviews_extra=*/"bound 1;");
  CatalogEntry* cars = *mediator.catalog()->Find("cars");
  CatalogEntry* reviews = *mediator.catalog()->Find("reviews");

  FederatedQuery query;
  query.sources = {"cars", "reviews"};
  query.keys = {{"cars.model", "reviews.model"}};
  query.condition = std::move(ParseCondition("cars.price < 30000")).value();
  FederationOptions federation;
  federation.bind_batch_size = 2;
  FederationProcessor processor({cars, reviews}, federation);
  const Result<RowSet> rows = processor.Execute(query);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(processor.stats().bind_batches, 2u);
  EXPECT_EQ(rows->size(), 2u);  // one row of each two-model batch
  EXPECT_EQ(reviews->source()->stats().truncated_responses, 2u);
  EXPECT_EQ(processor.stats().truncations.size(), 2u);
}

TEST(FederationStatsTest, BindBatchesAccumulateInOneExecutor) {
  // dealers is bind-only and 20 distinct makes drive it: at the default 8
  // values per batch that is 3 bind batches, all run by the relation's one
  // Executor, whose counters are read once after the last batch. Every
  // batch's round trip and rows must be in them.
  FakeClock clock;
  Mediator::Options options;
  options.clock = &clock;
  Mediator mediator(options);
  char cars_ssdl[1024];
  std::snprintf(cars_ssdl, sizeof(cars_ssdl), kCarsSsdlTemplate, "");
  Result<SourceDescription> cars_description = ParseSsdl(cars_ssdl);
  ASSERT_TRUE(cars_description.ok());
  Result<SourceDescription> dealers_description = ParseSsdl(kDealersSsdl);
  ASSERT_TRUE(dealers_description.ok());
  auto cars_table = std::make_unique<Table>("cars", cars_description->schema());
  auto dealers_table =
      std::make_unique<Table>("dealers", dealers_description->schema());
  constexpr int kMakes = 20;
  for (int i = 0; i < kMakes; ++i) {
    const std::string make = "make" + std::to_string(i);
    ASSERT_TRUE(cars_table
                    ->AppendValues({Value::String(make),
                                    Value::String("model" + std::to_string(i)),
                                    Value::Int(10000 + i)})
                    .ok());
    ASSERT_TRUE(dealers_table
                    ->AppendValues({Value::String(make),
                                    Value::String("city" + std::to_string(i)),
                                    Value::Int(i % 5)})
                    .ok());
  }
  ASSERT_TRUE(mediator
                  .RegisterSource(std::move(cars_description).value(),
                                  std::move(cars_table))
                  .ok());
  ASSERT_TRUE(mediator
                  .RegisterSource(std::move(dealers_description).value(),
                                  std::move(dealers_table))
                  .ok());
  CatalogEntry* cars = *mediator.catalog()->Find("cars");
  CatalogEntry* dealers = *mediator.catalog()->Find("dealers");

  // One driving fetch of cars (k1 10) plus one value-list fetch per batch
  // of dealers (k1 5); k2 is 1 on both, so rows cost one each.
  const auto expect_totals = [&](const ExecStats& exec, double true_cost,
                                 const char* via) {
    const Source::Stats car_calls = cars->source()->stats();
    const Source::Stats dealer_calls = dealers->source()->stats();
    EXPECT_EQ(car_calls.queries_answered, 1u) << via;
    EXPECT_EQ(dealer_calls.queries_answered, 3u) << via;
    EXPECT_EQ(exec.source_queries, 1u + 3u) << via;
    EXPECT_EQ(exec.rows_transferred,
              car_calls.rows_returned + dealer_calls.rows_returned)
        << via;
    EXPECT_DOUBLE_EQ(
        true_cost,
        10.0 * 1 + 5.0 * 3 +
            static_cast<double>(car_calls.rows_returned +
                                dealer_calls.rows_returned))
        << via;
  };

  FederatedQuery query;
  query.sources = {"dealers", "cars"};
  query.keys = {{"dealers.make", "cars.make"}};
  query.condition = std::move(ParseCondition("cars.price < 30000")).value();
  query.select = {"cars.model", "dealers.city"};
  FederationProcessor processor({dealers, cars}, FederationOptions{});
  const Result<RowSet> rows = processor.Execute(query);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), static_cast<size_t>(kMakes));
  EXPECT_EQ(processor.stats().bind_batches, 3u);
  expect_totals(processor.stats().exec, processor.stats().true_cost,
                "FederationProcessor");

  cars->source()->ResetStats();
  dealers->source()->ResetStats();
  const Result<Mediator::QueryResult> result = mediator.Query(
      "SELECT cars.model, dealers.city FROM dealers JOIN cars "
      "ON dealers.make = cars.make WHERE cars.price < 30000");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), static_cast<size_t>(kMakes));
  expect_totals(result->exec, result->true_cost, "Mediator::Query");
}

TEST(FederationFailoverTest, OnlyTheAnsweringAttemptMarksTheAnswer) {
  // reviews, bounded to one row per response, truncates the first bind
  // batch (two models) and is down from its second call on; the replica
  // answers every batch in full. The failed attempt's truncation marker
  // must not survive into the replica's complete answer.
  FakeClock clock;
  Mediator::Options options;
  options.clock = &clock;
  Mediator mediator(options);
  RegisterFixtureSources(&mediator, /*reviews_extra=*/"bound 1;");
  RegisterReviews(&mediator, "reviews_mirror", "");
  CatalogEntry* cars = *mediator.catalog()->Find("cars");
  CatalogEntry* reviews = *mediator.catalog()->Find("reviews");
  CatalogEntry* mirror = *mediator.catalog()->Find("reviews_mirror");
  FaultPolicy down_after_one;
  down_after_one.outages.push_back({1, 1000000});
  reviews->source()->set_fault_policy(down_after_one);

  FederatedQuery query;
  query.sources = {"cars", "reviews"};
  query.keys = {{"cars.model", "reviews.model"}};
  query.condition = std::move(ParseCondition("cars.price < 30000")).value();
  FederationOptions federation;
  federation.bind_batch_size = 2;
  federation.exec.clock = &clock;
  federation.alternates = {{}, {mirror}};
  FederationProcessor processor({cars, reviews}, federation);
  const Result<RowSet> rows = processor.Execute(query);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 4u);  // 318i, Corolla, Camry, 900
  EXPECT_EQ(processor.stats().failovers, 1u);
  EXPECT_EQ(reviews->source()->stats().truncated_responses, 1u);
  EXPECT_TRUE(processor.stats().truncations.empty());
}

TEST(FederationDeadlineTest, SlowFirstRelationLeavesTheRestUncontacted) {
  // The query deadline is shared by every relation of a join. cars, the
  // relation every join order fetches first, takes ~300ms of a 150ms
  // budget, so the next relation fails with the deadline before any call
  // to dealers or reviews — and neither failover to a replica nor a replan
  // is attempted past the deadline. Real clock: simulated latency is a real
  // sleep.
  Mediator::Options options;
  options.query_deadline = std::chrono::milliseconds(150);
  options.join_failover = true;
  options.replan_on_failure = true;
  Mediator mediator(options);
  RegisterFixtureSources(&mediator);
  RegisterDealers(&mediator, "dealers_mirror");
  RegisterReviews(&mediator, "reviews_mirror", "");
  (*mediator.catalog()->Find("cars"))
      ->source()
      ->set_simulated_latency(std::chrono::milliseconds(300));

  const Result<Mediator::QueryResult> result = mediator.Query(kThreeWaySql);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  for (const char* name :
       {"dealers", "reviews", "dealers_mirror", "reviews_mirror"}) {
    EXPECT_EQ(
        (*mediator.catalog()->Find(name))->source()->stats().queries_received,
        0u)
        << name;
  }
  const Mediator::Stats stats = mediator.StatsSnapshot();
  EXPECT_EQ(stats.fault_tolerance.deadlines_exceeded, 1u);
  EXPECT_EQ(stats.fault_tolerance.join_failovers, 0u);
}

TEST(FederationReplanTest, AvoidSetReplanAdoptsAlternateJoinOrder) {
  // Two relations where the optimizer's first tree fetches B independently
  // (B's estimated independent fetch undercuts the bind: A drives as many
  // distinct keys as B has, so the modeled bind transfers all of B). B's
  // first call fails retryably; the avoid-set replan marks B's independent
  // fetch infeasible, re-enumerates, and the alternate tree reaches B
  // through the bind edge — which succeeds, because the transient is gone.
  constexpr const char* kASsdl = R"(
    source A(k: string, v: int) {
      cost 10.0 1.0;
      rule f -> v >= $int | v < $int;
      export f : {k, v};
    })";
  constexpr const char* kBSsdl = R"(
    source B(k: string, w: int) {
      cost 10.0 1.0;
      rule klist -> k = $string or k = $string
                  | k = $string or klist;
      rule f -> k = $string
              | klist
              | ( klist )
              | w >= $int
              | w >= $int and ( klist )
              | w >= $int and k = $string
              | ( klist ) and w >= $int
              | k = $string and w >= $int;
      export f : {k, w};
    })";
  Catalog catalog;
  Result<SourceDescription> a = ParseSsdl(kASsdl);
  Result<SourceDescription> b = ParseSsdl(kBSsdl);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  auto a_table = std::make_unique<Table>("A", a->schema());
  auto b_table = std::make_unique<Table>("B", b->schema());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(a_table
                    ->AppendValues({Value::String("k" + std::to_string(i)),
                                    Value::Int(i)})
                    .ok());
    ASSERT_TRUE(b_table
                    ->AppendValues({Value::String("k" + std::to_string(i)),
                                    Value::Int(100 + i)})
                    .ok());
    ASSERT_TRUE(b_table
                    ->AppendValues({Value::String("k" + std::to_string(i)),
                                    Value::Int(200 + i)})
                    .ok());
  }
  ASSERT_TRUE(catalog.Register(std::move(a).value(), std::move(a_table)).ok());
  ASSERT_TRUE(catalog.Register(std::move(b).value(), std::move(b_table)).ok());
  CatalogEntry* entry_a = *catalog.Find("A");
  CatalogEntry* entry_b = *catalog.Find("B");

  FederatedQuery query;
  query.sources = {"A", "B"};
  query.keys = {{"A.k", "B.k"}};
  query.condition =
      std::move(ParseCondition("A.v >= 0 and B.w >= 0")).value();

  FakeClock clock;
  FederationOptions options;
  options.max_replans = 1;
  // A drives 6 distinct keys = B's full key domain, so a bind is modeled to
  // transfer all of B anyway; at batch size 4 its two setup round-trips make
  // it strictly dearer than B's single independent fetch.
  options.bind_batch_size = 4;
  options.exec.retry.max_attempts = 1;  // no in-executor retry: fail fast
  options.exec.clock = &clock;
  FederationProcessor processor({entry_a, entry_b}, options);

  // Round 0 must plan B's leaf as an independent fetch.
  const Result<FederationPlanOutcome> outcome = processor.Plan(query);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_EQ(outcome->enumeration.best.method, EdgeMethod::kIndependent)
      << outcome->tree;

  // B answers its first query with a transient failure, then recovers.
  FaultPolicy flaky;
  flaky.outages.push_back({0, 1});
  entry_b->source()->set_fault_policy(flaky);

  const Result<RowSet> rows = processor.Execute(query);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(processor.stats().replans, 1u);
  EXPECT_GE(processor.stats().bind_batches, 1u);  // round 1 bound B
  EXPECT_EQ(rows->size(), 12u);  // 6 keys × 2 B-rows each

  // Without the replan budget the same failure is terminal.
  entry_b->source()->set_fault_policy(FaultPolicy{});
  FaultPolicy flaky2;
  flaky2.outages.push_back({0, 1});
  FederationOptions no_replan;
  no_replan.exec.retry.max_attempts = 1;
  no_replan.exec.clock = &clock;
  FederationProcessor rigid({entry_a, entry_b}, no_replan);
  entry_b->source()->set_fault_policy(flaky2);
  EXPECT_FALSE(rigid.Execute(query).ok());
  entry_b->source()->set_fault_policy(FaultPolicy{});
}

}  // namespace
}  // namespace gencompact
