// The Checker's shape-keyed Check memo (src/ssdl/check.*):
//  - a recurring shape with fresh constants hits after the condition that
//    first filled the entry is gone, without another Earley run;
//  - a description reload rebuilds the source's Checkers, so a narrowed
//    description flips feasibility at once; reloads with the wrong name or
//    schema are rejected;
//  - an 8-thread hammer on one shared Checker (run under TSan and ASan by
//    scripts/ci.sh).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "expr/condition_parser.h"
#include "mediator/mediator.h"
#include "ssdl/check.h"
#include "ssdl/ssdl_parser.h"

namespace gencompact {
namespace {

std::vector<AttributeSet> Sorted(std::vector<AttributeSet> family) {
  std::sort(family.begin(), family.end());
  return family;
}

constexpr const char* kCarsSsdl = R"(
source cars(make: string, model: string, year: int,
            color: string, price: int) {
  cost 10.0 1.0;
  rule s1 -> make = $string and price < $int;
  rule s2 -> make = $string and color = $string;
  export s1 : {make, model, year, color};
  export s2 : {make, model, year};
}
)";

SourceDescription CarsDescription() {
  Result<SourceDescription> description = ParseSsdl(kCarsSsdl);
  EXPECT_TRUE(description.ok());
  return std::move(description).value();
}

TEST(ShapeMemoTest, RecurringShapeHitsAfterItsConditionDied) {
  const SourceDescription description = CarsDescription();
  Checker checker(&description);

  std::vector<AttributeSet> first_family;
  uint64_t first_id = 0;
  {
    const Result<ConditionPtr> cond =
        ParseCondition("make = \"BMW\" and price < 30000");
    ASSERT_TRUE(cond.ok());
    first_id = (*cond)->id();
    first_family = checker.Check(**cond);
    EXPECT_FALSE(first_family.empty());
  }
  const size_t items = checker.total_earley_items();
  EXPECT_GT(items, 0u);
  EXPECT_EQ(checker.memo_size(), 1u);

  // The caller's condition is gone. The same form with new constants is a
  // new condition with a new id, and the memo answers it by shape.
  const Result<ConditionPtr> again =
      ParseCondition("make = \"Audi\" and price < 45000");
  ASSERT_TRUE(again.ok());
  EXPECT_NE((*again)->id(), first_id);
  EXPECT_EQ(Sorted(checker.Check(**again)), Sorted(first_family));
  EXPECT_EQ(checker.num_cache_hits(), 1u);
  EXPECT_EQ(checker.total_earley_items(), items);  // no parse happened
  EXPECT_EQ(checker.memo_size(), 1u);
}

// ---------------------------------------------------------------------------
// Description reloads.

std::unique_ptr<Table> CarsTable(const Schema& schema) {
  auto table = std::make_unique<Table>("cars", schema);
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
  return table;
}

// Same source, but s1 no longer exports `color`.
constexpr const char* kCarsSsdlNarrow = R"(
source cars(make: string, model: string, year: int,
            color: string, price: int) {
  cost 10.0 1.0;
  rule s1 -> make = $string and price < $int;
  rule s2 -> make = $string and color = $string;
  export s1 : {make, model, year};
  export s2 : {make, model, year};
}
)";

TEST(DescriptionReloadTest, ReloadFlipsFeasibility) {
  Mediator mediator;
  SourceDescription description = CarsDescription();
  ASSERT_TRUE(mediator
                  .RegisterSource(std::move(description),
                                  CarsTable(CarsDescription().schema()))
                  .ok());

  const std::string sql =
      "select color from cars where make = \"BMW\" and price < 30000";
  ASSERT_TRUE(mediator.Query(sql).ok());  // v1: s1 exports color

  Result<SourceDescription> narrow = ParseSsdl(kCarsSsdlNarrow);
  ASSERT_TRUE(narrow.ok());
  ASSERT_TRUE(mediator.ReloadSource(std::move(narrow).value()).ok());

  // The old Checkers memoized that `color` is exported; the reload replaced
  // them, so the narrowed capabilities decide feasibility.
  const auto after = mediator.Query(sql);
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kNoFeasiblePlan);
  // New constants of the same shape: the old plan templates went with the
  // old handle, so the narrowed description's template answers them.
  const auto new_constants = mediator.Query(
      "select color from cars where make = \"Audi\" and price < 31000");
  EXPECT_EQ(new_constants.status().code(), StatusCode::kNoFeasiblePlan);

  const Mediator::Stats stats = mediator.StatsSnapshot();
  ASSERT_EQ(stats.sources.size(), 1u);
  EXPECT_EQ(stats.sources[0].description_epoch, 1u);
  EXPECT_EQ(stats.sources[0].template_builds, 1u);
  EXPECT_EQ(stats.sources[0].template_hits, 1u);

  // A query the narrowed description still supports works post-reload.
  EXPECT_TRUE(mediator
                  .Query("select make, model from cars where make = \"BMW\" "
                         "and price < 30000")
                  .ok());
}

TEST(DescriptionReloadTest, ReloadRejectsWrongNameOrSchema) {
  Mediator mediator;
  ASSERT_TRUE(mediator
                  .RegisterSource(CarsDescription(),
                                  CarsTable(CarsDescription().schema()))
                  .ok());
  // Unknown source name.
  SourceDescription other("trucks", CarsDescription().schema());
  EXPECT_EQ(mediator.ReloadSource(std::move(other)).code(),
            StatusCode::kNotFound);
  // Same name, incompatible schema.
  SourceDescription wrong_schema("cars",
                                 Schema({{"make", ValueType::kString}}));
  EXPECT_EQ(mediator.ReloadSource(std::move(wrong_schema)).code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Concurrency hammer (run under TSan and ASan by scripts/ci.sh): 8 threads
// share one Checker. Every condition is parsed fresh, and the threads use
// the same shapes with different constants, so each Check races the others'
// lookups and first inserts of the same shapes.

TEST(ShapeMemoHammerTest, ThreadsShareOneCheckerConsistently) {
  const SourceDescription description = CarsDescription();
  const std::vector<std::string> texts = {
      "make = \"BMW\" and price < 30000",
      "make = \"Toyota\" and price < 20000",
      "make = \"BMW\" and color = \"red\"",
      "make = \"Audi\" and price < 45000",
      "make = \"Toyota\" and color = \"blue\"",
      "price < 10000",
      "make = \"BMW\"",
      "make = \"VW\" and color = \"green\"",
  };
  // Reference families, one fresh Checker per condition.
  std::vector<std::vector<AttributeSet>> expected;
  for (const std::string& text : texts) {
    const Result<ConditionPtr> cond = ParseCondition(text);
    ASSERT_TRUE(cond.ok());
    Checker reference(&description);
    expected.push_back(Sorted(reference.Check(**cond)));
  }

  Checker checker(&description);
  constexpr size_t kThreads = 8;
  constexpr size_t kRounds = 30;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &texts, &expected, &checker]() {
      for (size_t round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < texts.size(); ++i) {
          const size_t pick = (i + t * 3 + round) % texts.size();
          const Result<ConditionPtr> cond = ParseCondition(texts[pick]);
          ASSERT_TRUE(cond.ok());
          EXPECT_EQ(Sorted(checker.Check(**cond)), expected[pick])
              << texts[pick];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(checker.num_checks(), kThreads * kRounds * texts.size());
  // Four distinct shapes: the s1 form, the s2 form, and the two single
  // atoms. Each was parsed once.
  EXPECT_EQ(checker.memo_size(), 4u);
  EXPECT_EQ(checker.num_checks() - checker.num_cache_hits(), 4u);
}

}  // namespace
}  // namespace gencompact
