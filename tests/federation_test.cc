// Federated joins: parsing, planning, execution, mediator dispatch and
// accounting, the fault interactions — a breaker tripping mid-join, a
// paged result-bounded relation inside a 3-source join, failover of a
// bound relation to a replica, the whole-join deadline, and the avoid-set
// replan that adopts an alternate join order after a leaf failure — and
// the event-loop walk: round trips that overlap in virtual time, the
// failure rule, and a tie-break sweep that permutes completion order.
// Every schedule but the deadline's runs on a FakeClock.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "common/clock.h"
#include "exec/event_loop.h"
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
  const Mediator::Stats stats = mediator.StatsSnapshot();
  EXPECT_GT(stats.fault_tolerance.breaker_rejections, 0u);
  // reviews' breaker is still open, so its k1 reads x8, the multiplier the
  // join's leaf costs were enumerated with; the healthy relations read 1.
  for (const Mediator::Stats::PerSource& source : stats.sources) {
    EXPECT_EQ(source.cost_penalty, source.name == "reviews" ? 8.0 : 1.0)
        << source.name;
  }

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
  for (const TruncationRecord& marker :
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
  // to dealers or reviews — and neither failover to a replica nor the
  // replan that retries arm is attempted past the deadline. Real clock:
  // simulated latency is a real sleep.
  Mediator::Options options;
  options.query_deadline = std::chrono::milliseconds(150);
  options.join_failover = true;
  options.retry.max_attempts = 2;
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
  // first fetch fails on both attempts; the avoid-set replan that retries
  // arm marks B's independent fetch infeasible, re-enumerates, and the
  // alternate tree reaches B through the bind edge — which succeeds,
  // because the transient is gone.
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
  // A drives 6 distinct keys = B's full key domain, so a bind is modeled to
  // transfer all of B anyway; at batch size 4 its two setup round-trips make
  // it strictly dearer than B's single independent fetch.
  options.bind_batch_size = 4;
  options.exec.retry.max_attempts = 2;
  options.exec.clock = &clock;
  FederationProcessor processor({entry_a, entry_b}, options);

  // Round 0 must plan B's leaf as an independent fetch.
  const Result<FederationPlanOutcome> outcome = processor.Plan(query);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_EQ(outcome->enumeration.best.method, EdgeMethod::kIndependent)
      << outcome->tree;

  // B fails its first two calls (the fetch and its retry), then recovers.
  FaultPolicy flaky;
  flaky.outages.push_back({0, 2});
  entry_b->source()->set_fault_policy(flaky);

  const Result<RowSet> rows = processor.Execute(query);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(processor.stats().replans, 1u);
  EXPECT_EQ(processor.stats().exec.retries, 1u);
  EXPECT_GE(processor.stats().bind_batches, 1u);  // round 1 bound B
  EXPECT_EQ(rows->size(), 12u);  // 6 keys × 2 B-rows each

  // Without retries the first fault is terminal: no retry, no replan.
  FederationOptions no_retries;
  no_retries.bind_batch_size = 4;
  no_retries.exec.clock = &clock;
  FederationProcessor rigid({entry_a, entry_b}, no_retries);
  FaultPolicy flaky2;
  flaky2.outages.push_back({0, 1});
  entry_b->source()->set_fault_policy(flaky2);
  const Result<RowSet> failed = rigid.Execute(query);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(rigid.stats().replans, 0u);
  EXPECT_EQ(entry_b->source()->fault_injector()->stats().calls, 1u);
  entry_b->source()->set_fault_policy(FaultPolicy{});
}

// ---------------------------------------------------------------------------
// The walk on the event loop: overlap in virtual time, the failure rule, and
// completion-order independence. Sources charge a simulated round trip, so
// on a FakeClock the answer's virtual time is the tree's critical path.
// ---------------------------------------------------------------------------

constexpr auto kTrip = std::chrono::milliseconds(10);

// Registers cars and the bind-only dealers directory (under each name in
// `dealer_names`: the primary, then replicas), one car and one dealer per
// make, `makes` makes. Every source charges kTrip per round trip.
void RegisterMakes(Mediator* mediator, int makes,
                   const std::vector<std::string>& dealer_names) {
  char cars_ssdl[1024];
  std::snprintf(cars_ssdl, sizeof(cars_ssdl), kCarsSsdlTemplate, "");
  Result<SourceDescription> cars = ParseSsdl(cars_ssdl);
  ASSERT_TRUE(cars.ok()) << cars.status().ToString();
  auto cars_table = std::make_unique<Table>("cars", cars->schema());
  for (int i = 0; i < makes; ++i) {
    ASSERT_TRUE(cars_table
                    ->AppendValues({Value::String("make" + std::to_string(i)),
                                    Value::String("model" + std::to_string(i)),
                                    Value::Int(10000 + i)})
                    .ok());
  }
  ASSERT_TRUE(
      mediator->RegisterSource(std::move(cars).value(), std::move(cars_table))
          .ok());
  for (const std::string& name : dealer_names) {
    std::string ssdl = kDealersSsdl;
    ssdl.replace(ssdl.find("dealers"), std::string("dealers").size(), name);
    Result<SourceDescription> dealers = ParseSsdl(ssdl);
    ASSERT_TRUE(dealers.ok()) << dealers.status().ToString();
    auto table = std::make_unique<Table>(name, dealers->schema());
    for (int i = 0; i < makes; ++i) {
      ASSERT_TRUE(table
                      ->AppendValues({Value::String("make" + std::to_string(i)),
                                      Value::String("city" + std::to_string(i)),
                                      Value::Int(i % 5)})
                      .ok());
    }
    ASSERT_TRUE(
        mediator->RegisterSource(std::move(dealers).value(), std::move(table))
            .ok());
  }
  mediator->catalog()->ForEach([](CatalogEntry* entry) {
    entry->source()->set_simulated_latency(kTrip);
  });
}

constexpr const char* kMakesSql =
    "SELECT cars.model, dealers.city FROM dealers JOIN cars "
    "ON dealers.make = cars.make WHERE cars.price < 30000";

FederatedQuery MakesQuery() {
  FederatedQuery query;
  query.sources = {"dealers", "cars"};
  query.keys = {{"dealers.make", "cars.make"}};
  query.condition = std::move(ParseCondition("cars.price < 30000")).value();
  query.select = {"cars.model", "dealers.city"};
  return query;
}

TEST(FederationOverlapTest, BindBatchesOfAnEdgeAreInFlightTogether) {
  // dealers is bind-only and 20 makes drive it: 3 batches of at most 8. The
  // driving fetch of cars takes one round trip, then all three batches are
  // on the wire at once: 20ms, not 10 + 3 x 10.
  FakeClock clock;
  Mediator::Options options;
  options.clock = &clock;
  Mediator mediator(options);
  RegisterMakes(&mediator, 20, {"dealers"});
  CatalogEntry* cars = *mediator.catalog()->Find("cars");
  CatalogEntry* dealers = *mediator.catalog()->Find("dealers");

  FederationOptions federation;
  federation.exec.clock = &clock;
  FederationProcessor processor({dealers, cars}, federation);
  auto start = clock.Now();
  const Result<RowSet> rows = processor.Execute(MakesQuery());
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 20u);
  EXPECT_EQ(processor.stats().bind_batches, 3u);
  EXPECT_EQ(clock.Now() - start, 2 * kTrip) << "FederationProcessor";
  EXPECT_EQ(dealers->source()->stats().peak_inflight, 3u);

  start = clock.Now();
  const Result<Mediator::QueryResult> result = mediator.Query(kMakesSql);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 20u);
  EXPECT_EQ(clock.Now() - start, 2 * kTrip) << "Mediator::Query";
}

TEST(FederationOverlapTest, BothSidesOfAnIndependentEdgeStartTogether) {
  // L and R are reachable only by independent fetches (neither accepts a
  // value list on k), so the one tree is (L ind R): both fetches start at
  // once and the join answers after one round trip.
  constexpr const char* kLSsdl = R"(
    source L(k: string, v: int) {
      cost 10.0 1.0;
      rule f -> v >= $int;
      export f : {k, v};
    })";
  constexpr const char* kRSsdl = R"(
    source R(k: string, w: int) {
      cost 10.0 1.0;
      rule f -> w >= $int;
      export f : {k, w};
    })";
  FakeClock clock;
  Mediator::Options options;
  options.clock = &clock;
  Mediator mediator(options);
  for (const char* ssdl : {kLSsdl, kRSsdl}) {
    Result<SourceDescription> description = ParseSsdl(ssdl);
    ASSERT_TRUE(description.ok()) << description.status().ToString();
    auto table = std::make_unique<Table>(description->source_name(),
                                         description->schema());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(table
                      ->AppendValues({Value::String("k" + std::to_string(i)),
                                      Value::Int(i)})
                      .ok());
    }
    ASSERT_TRUE(mediator
                    .RegisterSource(std::move(description).value(),
                                    std::move(table))
                    .ok());
  }
  CatalogEntry* left = *mediator.catalog()->Find("L");
  CatalogEntry* right = *mediator.catalog()->Find("R");
  left->source()->set_simulated_latency(kTrip);
  right->source()->set_simulated_latency(kTrip);

  FederatedQuery query;
  query.sources = {"L", "R"};
  query.keys = {{"L.k", "R.k"}};
  query.condition = std::move(ParseCondition("L.v >= 0 and R.w >= 1")).value();
  FederationOptions federation;
  federation.force_method = EdgeMethod::kIndependent;
  federation.exec.clock = &clock;
  FederationProcessor processor({left, right}, federation);
  auto start = clock.Now();
  const Result<RowSet> rows = processor.Execute(query);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 3u);
  EXPECT_EQ(processor.stats().independent_edges, 1u);
  EXPECT_EQ(clock.Now() - start, kTrip) << "FederationProcessor";

  start = clock.Now();
  const Result<Mediator::QueryResult> result = mediator.Query(
      "SELECT L.k, R.w FROM L JOIN R ON L.k = R.k "
      "WHERE L.v >= 0 and R.w >= 1");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 3u);
  EXPECT_EQ(mediator.StatsSnapshot().join.independent_edges_chosen, 1u);
  EXPECT_EQ(clock.Now() - start, kTrip) << "Mediator::Query";
}

TEST(FederationOverlapTest, ScanPoolKeepsTheAnswerAndTheCriticalPath) {
  // With worker threads, the scans of concurrent batches leave the thread
  // driving the loop while other batches are still out — on a blocking
  // join's private loop and, always, on the mediator loop QueryAsync uses.
  // Rows (in order), cost and virtual time match the pool-less run.
  FakeClock clock;
  Mediator::Options options;
  options.clock = &clock;
  Mediator plain(options);
  RegisterMakes(&plain, 20, {"dealers"});
  options.num_threads = 4;
  Mediator pooled(options);
  RegisterMakes(&pooled, 20, {"dealers"});
  const auto sequence = [](const RowSet& rows) {
    std::vector<std::string> out;
    for (const Row& row : rows.rows()) {
      out.emplace_back();
      for (const Value& v : row.values()) out.back() += v.ToString() + "|";
    }
    return out;
  };
  const Result<Mediator::QueryResult> expected = plain.Query(kMakesSql);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  const auto expect_same = [&](const Result<Mediator::QueryResult>& result,
                               const char* via) {
    ASSERT_TRUE(result.ok()) << via << ": " << result.status().ToString();
    EXPECT_EQ(sequence(result->rows), sequence(expected->rows)) << via;
    EXPECT_EQ(result->exec.source_queries, expected->exec.source_queries)
        << via;
    EXPECT_DOUBLE_EQ(result->true_cost, expected->true_cost) << via;
  };

  auto start = clock.Now();
  expect_same(pooled.Query(kMakesSql), "Query");
  EXPECT_EQ(clock.Now() - start, 2 * kTrip) << "Query";

  std::promise<Result<Mediator::QueryResult>> promise;
  start = clock.Now();
  pooled.QueryAsync(kMakesSql, [&promise](Result<Mediator::QueryResult> r) {
    promise.set_value(std::move(r));
  });
  expect_same(promise.get_future().get(), "QueryAsync");
  EXPECT_EQ(clock.Now() - start, 2 * kTrip) << "QueryAsync";
}

TEST(FederationFailureRuleTest, FailedBatchWaitsForItsSiblingsBeforeFailover) {
  // Three batches of dealers leave together at 10ms. Batch 0 fails at once
  // and again on its retry at 13ms; batches 1 and 2 are already on the wire
  // and land at 20ms. Nothing starts between the failure and their landing;
  // only then does the replica take the relation, all three of its batches
  // at once, and the join answers at 30ms. The siblings' work is in the
  // true cost.
  SimulatedEventLoop sim;
  Mediator mediator;
  RegisterMakes(&mediator, 20, {"dealers", "mirror"});
  CatalogEntry* cars = *mediator.catalog()->Find("cars");
  CatalogEntry* dealers = *mediator.catalog()->Find("dealers");
  CatalogEntry* mirror = *mediator.catalog()->Find("mirror");
  FaultPolicy outage;
  outage.outages = {{0, 1}, {3, 4}};  // batch 0's two attempts
  dealers->source()->set_fault_policy(outage);

  FederationOptions federation;
  federation.exec.clock = sim.clock();
  federation.exec.retry.max_attempts = 2;
  federation.exec.retry.backoff.base = std::chrono::milliseconds(3);
  federation.exec.retry.backoff.cap = std::chrono::milliseconds(3);
  federation.alternates = {{mirror}, {}};
  FederationProcessor processor({dealers, cars}, federation, sim.loop());
  std::optional<Result<RowSet>> answer;
  const auto start = sim.clock()->Now();
  processor.ExecuteAsync(MakesQuery(), [&answer](Result<RowSet> rows) {
    answer = std::move(rows);
  });
  // Plan, and put the driving fetch of cars on the wire at 0ms.
  while (cars->source()->stats().queries_received == 0) {
    ASSERT_TRUE(sim.Step());
  }

  sim.AdvanceBy(std::chrono::milliseconds(19));
  // Batch 0 has failed for good (both attempts hit the outage) ...
  EXPECT_EQ(dealers->source()->fault_injector()->stats().injected_unavailable,
            2u);
  // ... but its siblings are still out, so no fetch has started since.
  EXPECT_EQ(dealers->source()->stats().queries_received, 4u);
  EXPECT_EQ(dealers->source()->inflight(), 2u);
  EXPECT_EQ(mirror->source()->stats().queries_received, 0u);
  EXPECT_FALSE(answer.has_value());

  sim.AdvanceBy(std::chrono::milliseconds(1));  // 20ms: the siblings land
  EXPECT_EQ(dealers->source()->stats().queries_answered, 2u);
  EXPECT_EQ(mirror->source()->stats().queries_received, 3u);

  sim.RunUntilIdle();
  ASSERT_TRUE(answer.has_value());
  ASSERT_TRUE(answer->ok()) << answer->status().ToString();
  EXPECT_EQ((*answer)->size(), 20u);
  EXPECT_EQ(sim.clock()->Now() - start, 3 * kTrip);
  const FederationExecStats& stats = processor.stats();
  EXPECT_EQ(stats.failovers, 1u);
  EXPECT_EQ(stats.exec.retries, 1u);
  // cars (k1 10), the two dealers batches that answered and the mirror's
  // three (k1 5 each); k2 is 1, so every shipped row costs one. Batches 1
  // and 2 of dealers shipped 8 + 4 rows.
  const uint64_t dealer_rows = dealers->source()->stats().rows_returned;
  EXPECT_EQ(dealer_rows, 12u);
  EXPECT_EQ(stats.exec.source_queries, 1u + 2u + 3u);
  EXPECT_DOUBLE_EQ(
      stats.true_cost,
      10.0 + 5.0 * 2 + 5.0 * 3 +
          static_cast<double>(cars->source()->stats().rows_returned +
                              dealer_rows +
                              mirror->source()->stats().rows_returned));
}

// A(k, v) with one row per key and B(k, w) with two, both fetchable on
// their own and bindable on k (B2 is a replica of B). At batch size 4 a bind
// costs two round trips, so the cost-chosen tree is (A ind B), with A on
// the left: the enumerator keeps the lowest relation there.
class IndependentEdgeFixture : public ::testing::Test {
 protected:
  IndependentEdgeFixture() {
    constexpr const char* kTemplate = R"(
      source %s(k: string, %s: int) {
        cost 10.0 1.0;
        rule klist -> k = $string or k = $string
                    | k = $string or klist;
        rule f -> k = $string
                | klist
                | ( klist )
                | %s >= $int
                | %s >= $int and ( klist )
                | ( klist ) and %s >= $int;
        export f : {k, %s};
      })";
    for (const auto& [name, attr, copies] :
         {std::tuple<const char*, const char*, int>{"A", "v", 1},
          std::tuple<const char*, const char*, int>{"B", "w", 2},
          std::tuple<const char*, const char*, int>{"B2", "w", 2}}) {
      char ssdl[1024];
      std::snprintf(ssdl, sizeof(ssdl), kTemplate, name, attr, attr, attr,
                    attr, attr);
      Result<SourceDescription> description = ParseSsdl(ssdl);
      EXPECT_TRUE(description.ok()) << description.status().ToString();
      auto table = std::make_unique<Table>(name, description->schema());
      for (int i = 0; i < 6; ++i) {
        for (int c = 0; c < copies; ++c) {
          const Value key = Value::String("k" + std::to_string(i));
          EXPECT_TRUE(
              table->AppendValues({key, Value::Int(100 * c + i)}).ok());
        }
      }
      EXPECT_TRUE(
          catalog_.Register(std::move(description).value(), std::move(table))
              .ok());
    }
    a_ = *catalog_.Find("A");
    b_ = *catalog_.Find("B");
    b2_ = *catalog_.Find("B2");
    query_.sources = {"A", "B"};
    query_.keys = {{"A.k", "B.k"}};
    query_.condition =
        std::move(ParseCondition("A.v >= 0 and B.w >= 0")).value();
    options_.bind_batch_size = 4;
    options_.exec.clock = sim_.clock();
  }

  /// Runs the join on the simulated loop. `on_the_wire` runs once A's
  /// `a_calls`-th call has been sent.
  Result<RowSet> Run(FederationProcessor* processor,
                     const std::function<void()>& on_the_wire = [] {},
                     size_t a_calls = 1) {
    const Result<FederationPlanOutcome> outcome = processor->Plan(query_);
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
    const SubsetPlan& root = outcome->enumeration.table.at(3);
    EXPECT_EQ(root.method, EdgeMethod::kIndependent) << outcome->tree;
    EXPECT_EQ(root.left, 1u) << outcome->tree;
    std::optional<Result<RowSet>> answer;
    processor->ExecuteAsync(query_, [&answer](Result<RowSet> rows) {
      answer = std::move(rows);
    });
    while (a_->source()->stats().queries_received < a_calls && sim_.Step()) {
    }
    on_the_wire();
    sim_.RunUntilIdle();
    if (!answer.has_value()) return Status::Internal("no answer");
    return std::move(*answer);
  }

  Catalog catalog_;
  CatalogEntry* a_ = nullptr;
  CatalogEntry* b_ = nullptr;
  CatalogEntry* b2_ = nullptr;
  FederatedQuery query_;
  SimulatedEventLoop sim_;
  FederationOptions options_;
};

TEST_F(IndependentEdgeFixture, LeftSideFailureWinsEvenWhenItLandsLast) {
  // Both sides fail in round 0, each on both attempts: B at 0 and 1ms, A
  // at 5 and 11ms (stuck calls). The failure reported — and so the relation
  // the avoid-set replan routes around — is A's, as a one-fetch-at-a-time
  // walk, which never reaches B, would report.
  // Round 1 then reaches A through a bind edge from B.
  FaultPolicy stuck;
  stuck.stuck_call_rate = 1.0;
  stuck.stuck_penalty = std::chrono::milliseconds(5);
  a_->source()->set_fault_policy(stuck);
  FaultPolicy down_twice;
  down_twice.outages = {{0, 2}};
  b_->source()->set_fault_policy(down_twice);

  // Retries arm the replan.
  options_.exec.retry.max_attempts = 2;
  options_.exec.retry.backoff.base = std::chrono::milliseconds(1);
  options_.exec.retry.backoff.cap = std::chrono::milliseconds(1);
  FederationProcessor processor({a_, b_}, options_, sim_.loop());
  // Once A's retry has drawn its fate, later calls to A are healthy.
  const Result<RowSet> rows = Run(
      &processor, [this] { a_->source()->set_fault_policy(FaultPolicy{}); },
      /*a_calls=*/2);
  EXPECT_EQ(b_->source()->stats().queries_unavailable, 2u);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 12u);  // 6 keys x 2 B-rows each
  EXPECT_EQ(processor.stats().replans, 1u);
  EXPECT_EQ(processor.stats().plan.tree, "(B bind A)");
}

TEST_F(IndependentEdgeFixture, NoAlternateStartsAfterAnEarlierFailure) {
  // A fails at once; B's call is stuck until 5ms and then fails too. B has
  // a replica, but the walk already failed at A, which comes first in walk
  // order: a one-fetch-at-a-time walk never reaches B, so B's failover never
  // starts. The error is A's.
  FaultPolicy down;
  down.outages = {{0, 1}};
  a_->source()->set_fault_policy(down);
  FaultPolicy stuck;
  stuck.stuck_call_rate = 1.0;
  stuck.stuck_penalty = std::chrono::milliseconds(5);
  b_->source()->set_fault_policy(stuck);

  options_.alternates = {{}, {b2_}};
  FederationProcessor processor({a_, b_}, options_, sim_.loop());
  const Result<RowSet> rows = Run(&processor);
  ASSERT_FALSE(rows.ok());
  EXPECT_NE(rows.status().message().find("source 'A'"), std::string::npos)
      << rows.status().ToString();
  EXPECT_EQ(b_->source()->stats().queries_received, 1u);
  EXPECT_EQ(b2_->source()->stats().queries_received, 0u);
  EXPECT_EQ(processor.stats().failovers, 0u);
}

uint64_t BaseSeed() {
  const char* env = std::getenv("GENCOMPACT_TEST_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 439;
}

/// Everything a federated execution reports, rendered for comparison: the
/// row sequence as produced, every FederationExecStats field, the markers.
std::string Render(const Result<RowSet>& rows,
                   const FederationExecStats& stats) {
  std::string out = rows.ok() ? "ok\n" : rows.status().ToString() + "\n";
  if (rows.ok()) {
    for (const Row& row : rows->rows()) {
      for (const Value& v : row.values()) out += v.ToString() + "|";
      out += "\n";
    }
  }
  const ExecStats& e = stats.exec;
  char line[512];
  std::snprintf(
      line, sizeof(line),
      "exec %zu %llu %llu %llu %llu %llu %llu %llu %llu %llu %llu %llu\n"
      "batches %zu joined %zu enumerated %zu subsets %zu edges %zu/%zu "
      "greedy %d replans %zu failovers %zu cost %.17g\n"
      "plan %s %.17g\n",
      e.source_queries, (unsigned long long)e.rows_transferred,
      (unsigned long long)e.retries, (unsigned long long)e.failed_sub_queries,
      (unsigned long long)e.breaker_rejections,
      (unsigned long long)e.deadlines_exceeded,
      (unsigned long long)e.dropped_branches,
      (unsigned long long)e.hedges_launched, (unsigned long long)e.hedges_won,
      (unsigned long long)e.hedges_cancelled,
      (unsigned long long)e.pages_fetched,
      (unsigned long long)e.truncated_sub_queries, stats.bind_batches,
      stats.joined_rows, stats.plans_enumerated, stats.dp_subsets,
      stats.bind_edges, stats.independent_edges, stats.used_greedy ? 1 : 0,
      stats.replans, stats.failovers, stats.true_cost,
      stats.plan.tree.c_str(), stats.plan.estimated_cost);
  out += line;
  for (const TruncationRecord& record : stats.truncations) {
    out += "truncated " + record.source + " " + record.sub_query + " " +
           std::to_string(record.bound) + " " +
           std::to_string(record.rows_lower_bound) + " " + record.reason +
           "\n";
  }
  for (const std::string& branch : stats.dropped_sub_queries) {
    out += "dropped " + branch + "\n";
  }
  return out;
}

/// Two joins on a SimulatedEventLoop whose tie-break seed permutes every
/// set of round trips that land at the same virtual instant: the three-way
/// join (its bind batches) and cars ⋈ reviews forced independent (its two
/// sides). cars and reviews are result-bounded without paging, so reviews'
/// batches, and both sides of the independent edge, leave truncation
/// markers; dealers fails transiently on a keyed schedule, so retries
/// interleave with the batches.
std::string RunJoinsOnSeed(uint64_t seed,
                           FederationExecStats* three_way_stats = nullptr) {
  SimulatedEventLoop sim(seed);
  Mediator mediator;
  RegisterFixtureSources(&mediator, /*reviews_extra=*/"bound 1;",
                         /*cars_extra=*/"bound 4;");
  std::vector<CatalogEntry*> entries;
  for (const char* name : {"cars", "dealers", "reviews"}) {
    entries.push_back(*mediator.catalog()->Find(name));
    entries.back()->source()->set_simulated_latency(
        std::chrono::milliseconds(1));
  }
  FaultPolicy flaky;
  flaky.seed = 1;
  flaky.transient_error_rate = 0.5;
  flaky.keyed_schedule = true;
  entries[1]->source()->set_fault_policy(flaky);

  FederatedQuery three_way;
  three_way.sources = {"cars", "dealers", "reviews"};
  three_way.keys = {{"cars.make", "dealers.make"},
                    {"cars.model", "reviews.model"}};
  three_way.condition = std::move(ParseCondition("cars.price < 30000")).value();
  FederatedQuery two_way;
  two_way.sources = {"cars", "reviews"};
  two_way.keys = {{"cars.model", "reviews.model"}};
  two_way.condition =
      std::move(ParseCondition("cars.price < 40000 and reviews.score >= 4"))
          .value();

  std::string out;
  const auto run = [&](const std::vector<CatalogEntry*>& relations,
                       const FederatedQuery& query,
                       FederationOptions options) {
    options.exec.clock = sim.clock();
    options.exec.retry.max_attempts = 4;
    FederationProcessor processor(relations, options, sim.loop());
    std::optional<Result<RowSet>> answer;
    processor.ExecuteAsync(query, [&answer](Result<RowSet> rows) {
      answer = std::move(rows);
    });
    sim.RunUntilIdle();
    out += answer.has_value() ? Render(*answer, processor.stats())
                              : "no answer\n";
    return processor.stats();
  };
  FederationOptions batched;
  batched.bind_batch_size = 2;
  const FederationExecStats stats = run(entries, three_way, batched);
  if (three_way_stats != nullptr) *three_way_stats = stats;
  FederationOptions independent;
  independent.force_method = EdgeMethod::kIndependent;
  run({entries[0], entries[2]}, two_way, independent);
  return out;
}

TEST(FederationInterleavingTest, EveryTieBreakSeedFoldsTheSameAnswer) {
  // Seed 0 fires same-instant timers in schedule order; every other seed
  // permutes them. The answers, their row order, the statistics and the
  // markers must not change with the order fetches land in.
  FederationExecStats three_way;
  const std::string baseline = RunJoinsOnSeed(0, &three_way);
  ASSERT_EQ(baseline.rfind("ok\n", 0), 0u) << baseline;
  // The schedule this sweep permutes: several batches, retries among them,
  // and markers from two batches of one edge and from both sides of the
  // independent edge.
  EXPECT_GE(three_way.bind_batches, 3u) << baseline;
  EXPECT_GT(three_way.exec.retries, 0u) << baseline;
  EXPECT_NE(baseline.find("truncated reviews"), std::string::npos)
      << baseline;
  const uint64_t base = BaseSeed();
  for (uint64_t seed = base; seed < base + 16; ++seed) {
    EXPECT_EQ(RunJoinsOnSeed(seed), baseline) << "tie-break seed " << seed;
  }
}

}  // namespace
}  // namespace gencompact
