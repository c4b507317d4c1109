// Two-source joins on the one join path: the pushdown split, a bind-only
// right side reached through value-list batches, batch chunking, key
// validation, and Mediator::Query dispatch of two-source SQL.

#include <gtest/gtest.h>

#include "expr/condition_parser.h"
#include "mediator/federation.h"
#include "mediator/mediator.h"
#include "ssdl/ssdl_parser.h"

namespace gencompact {
namespace {

// cars: a limited form source (single make, price bound).
constexpr const char* kCarsSsdl = R"(
  source cars(make: string, model: string, price: int, year: int) {
    cost 10.0 1.0;
    rule f -> make = $string
            | make = $string and price < $int
            | price < $int;
    export f : {make, model, price, year};
  })";

// dealers: accepts one make or a list of makes, optionally with a rating
// floor — never a download.
constexpr const char* kDealersSsdl = R"(
  source dealers(make: string, city: string, rating: int, since: int) {
    cost 5.0 1.0;
    rule mlist -> make = $string or make = $string
                | make = $string or mlist;
    rule f -> make = $string
            | mlist
            | ( mlist )
            | make = $string and rating >= $int
            | ( mlist ) and rating >= $int
            | rating >= $int and make = $string
            | rating >= $int and ( mlist );
    export f : {make, city, rating, since};
  })";

class JoinFixture : public ::testing::Test {
 protected:
  JoinFixture() {
    Result<SourceDescription> cars = ParseSsdl(kCarsSsdl);
    Result<SourceDescription> dealers = ParseSsdl(kDealersSsdl);
    EXPECT_TRUE(cars.ok()) << cars.status().ToString();
    EXPECT_TRUE(dealers.ok()) << dealers.status().ToString();

    auto cars_table = std::make_unique<Table>("cars", cars->schema());
    const auto add_car = [&](const char* make, const char* model,
                             int64_t price, int64_t year) {
      EXPECT_TRUE(cars_table
                      ->AppendValues({Value::String(make), Value::String(model),
                                      Value::Int(price), Value::Int(year)})
                      .ok());
    };
    add_car("BMW", "318i", 21000, 1996);
    add_car("BMW", "528i", 38000, 1997);
    add_car("Toyota", "Corolla", 13000, 1997);
    add_car("Toyota", "Camry", 19000, 1998);
    add_car("Saab", "900", 16000, 1995);

    auto dealers_table = std::make_unique<Table>("dealers", dealers->schema());
    const auto add_dealer = [&](const char* make, const char* city,
                                int64_t rating, int64_t since) {
      EXPECT_TRUE(dealers_table
                      ->AppendValues({Value::String(make), Value::String(city),
                                      Value::Int(rating), Value::Int(since)})
                      .ok());
    };
    add_dealer("BMW", "Palo Alto", 5, 1990);
    add_dealer("BMW", "San Jose", 3, 1995);
    add_dealer("Toyota", "Palo Alto", 4, 1985);
    add_dealer("Honda", "Fremont", 4, 1992);

    EXPECT_TRUE(
        catalog_.Register(std::move(cars).value(), std::move(cars_table)).ok());
    EXPECT_TRUE(catalog_
                    .Register(std::move(dealers).value(),
                              std::move(dealers_table))
                    .ok());
    left_ = *catalog_.Find("cars");
    right_ = *catalog_.Find("dealers");
  }

  FederatedQuery MakeQuery(const std::string& condition_text,
                           std::vector<std::string> select) {
    FederatedQuery query;
    query.sources = {"cars", "dealers"};
    query.keys = {{"cars.make", "dealers.make"}};
    Result<ConditionPtr> cond = ParseCondition(condition_text);
    EXPECT_TRUE(cond.ok()) << cond.status().ToString();
    query.condition = std::move(cond).value();
    query.select = std::move(select);
    return query;
  }

  Catalog catalog_;
  CatalogEntry* left_ = nullptr;
  CatalogEntry* right_ = nullptr;
};

TEST_F(JoinFixture, PushdownSplitsPerSourceConjuncts) {
  FederationProcessor processor({left_, right_});
  const FederatedQuery pushdown = MakeQuery(
      "cars.price < 30000 and dealers.rating >= 4",
      {"cars.model", "dealers.city", "dealers.rating"});
  const Result<FederationPlanOutcome> outcome = processor.Plan(pushdown);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  // Both conjuncts push down to their sources; nothing is residual.
  EXPECT_TRUE(outcome->residual->is_true());

  const Result<RowSet> rows = processor.Execute(pushdown);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  // Rating >= 4 dealers: BMW/Palo Alto(5), Toyota/Palo Alto(4),
  // Honda/Fremont(4). Joined: 318i+PA, Corolla+PA, Camry+PA.
  EXPECT_EQ(rows->size(), 3u);
}

TEST_F(JoinFixture, BindJoinIsChosenWhenRightCannotRunIndependently) {
  // The dealers source requires a make to be specified (no download, no
  // rating-only queries): an independent dealers fetch for `true` is
  // infeasible, so the processor must bind it.
  FederationProcessor processor({left_, right_});
  const FederatedQuery query =
      MakeQuery("cars.make = \"BMW\"", {"cars.model", "dealers.city"});
  const Result<FederationPlanOutcome> outcome = processor.Plan(query);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->leaf_plans[1], nullptr);
  EXPECT_EQ(outcome->enumeration.best.method, EdgeMethod::kBind)
      << outcome->tree;

  const Result<RowSet> rows = processor.Execute(query);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 4u);  // 2 BMW cars x 2 BMW dealers
  EXPECT_GE(processor.stats().bind_batches, 1u);
  // The bind transfers only BMW dealers (2), not the whole dealer table.
  EXPECT_EQ(right_->source()->stats().rows_returned, 2u);
}

TEST_F(JoinFixture, SmallBindBatchesChunkCorrectly) {
  FederationOptions options;
  options.bind_batch_size = 1;  // one make per dealers query
  options.force_method = EdgeMethod::kBind;
  FederationProcessor processor({left_, right_}, options);
  const FederatedQuery query = MakeQuery("cars.price < 40000", {"dealers.city"});
  const Result<RowSet> rows = processor.Execute(query);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  // Distinct cars makes: BMW, Toyota, Saab -> 3 batches.
  EXPECT_EQ(processor.stats().bind_batches, 3u);
  EXPECT_EQ(rows->size(), 2u);  // cities: Palo Alto, San Jose
}

TEST_F(JoinFixture, ErrorsOnMissingKeys) {
  FederationProcessor processor({left_, right_});
  FederatedQuery query = MakeQuery("true", {});
  query.keys.clear();
  EXPECT_EQ(processor.Plan(query).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(IsJoinQueryTest, Detection) {
  EXPECT_TRUE(IsJoinQuery("SELECT * FROM a JOIN b ON a.x = b.y"));
  EXPECT_FALSE(IsJoinQuery("SELECT * FROM a WHERE x = \"join\""));
  EXPECT_FALSE(IsJoinQuery("SELECT * FROM a"));
}

TEST_F(JoinFixture, MediatorDispatchesJoinSql) {
  // Rebuild the fixture state inside a Mediator.
  Mediator mediator;
  Result<SourceDescription> cars = ParseSsdl(kCarsSsdl);
  Result<SourceDescription> dealers = ParseSsdl(kDealersSsdl);
  ASSERT_TRUE(cars.ok());
  ASSERT_TRUE(dealers.ok());
  auto cars_table = std::make_unique<Table>("cars", cars->schema());
  ASSERT_TRUE(cars_table
                  ->AppendValues({Value::String("BMW"), Value::String("318i"),
                                  Value::Int(21000), Value::Int(1996)})
                  .ok());
  auto dealers_table = std::make_unique<Table>("dealers", dealers->schema());
  ASSERT_TRUE(dealers_table
                  ->AppendValues({Value::String("BMW"),
                                  Value::String("Palo Alto"), Value::Int(5),
                                  Value::Int(1990)})
                  .ok());
  ASSERT_TRUE(
      mediator.RegisterSource(std::move(cars).value(), std::move(cars_table))
          .ok());
  ASSERT_TRUE(mediator
                  .RegisterSource(std::move(dealers).value(),
                                  std::move(dealers_table))
                  .ok());

  const Result<Mediator::QueryResult> result = mediator.Query(
      "SELECT cars.model, dealers.city FROM cars JOIN dealers "
      "ON cars.make = dealers.make WHERE cars.price < 30000");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 1u);
  EXPECT_GE(result->exec.source_queries, 2u);
  EXPECT_GT(result->true_cost, 0.0);
  EXPECT_GT(result->estimated_cost, 0.0);
  // Two sources take the same path as three: the federation processor.
  const Mediator::Stats stats = mediator.StatsSnapshot();
  EXPECT_EQ(stats.join.federated_queries, 1u);
  EXPECT_EQ(stats.join.bind_edges_chosen, 1u);  // dealers is bind-only
}

}  // namespace
}  // namespace gencompact
