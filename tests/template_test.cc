// GenCompact's plan templates: cases the seeded TemplateTest
// (differential_test.cc) cannot count on drawing. Atoms that coincide in one
// query and differ in the next, a grammar-pinned literal, a health penalty
// that flips the plan on a warm template, and threads racing to build one
// cold shape. Every plan made from a warm template must be the plan a fresh
// handle makes for the same query: same string, same cost bits, same IPG
// counters.

#include <gtest/gtest.h>

#include <bit>
#include <thread>

#include "expr/condition_parser.h"
#include "planner/gen_compact.h"
#include "ssdl/ssdl_parser.h"
#include "workload/datasets.h"

namespace gencompact {
namespace {

ConditionPtr Parse(const std::string& text) {
  Result<ConditionPtr> cond = ParseCondition(text);
  EXPECT_TRUE(cond.ok()) << cond.status().ToString();
  return std::move(cond).value();
}

struct Planned {
  bool ok = false;
  std::string text;
  uint64_t cost_bits = 0;
  size_t calls = 0;
  size_t subplans = 0;
  size_t num_cts = 0;
  bool built = false;
};

Planned PlanOn(SourceHandle* handle, const ConditionPtr& cond,
               const AttributeSet& attrs) {
  GenCompactPlanner planner(handle);
  const Result<PlanPtr> plan = planner.Plan(cond, attrs);
  Planned out;
  out.ok = plan.ok();
  out.calls = planner.stats().ipg.calls;
  out.subplans = planner.stats().ipg.total_subplans;
  out.num_cts = planner.stats().num_cts;
  out.built = planner.stats().template_built;
  if (!plan.ok()) return out;
  out.text = (*plan)->ToShortString();
  out.cost_bits =
      std::bit_cast<uint64_t>(handle->cost_model().PlanCost(**plan));
  return out;
}

// The plan of `cond` on a fresh handle over the same description and table.
Planned PlanFresh(const SourceHandle& like, const Table* table,
                  const ConditionPtr& cond, const AttributeSet& attrs) {
  SourceHandle fresh(like.description(), table,
                     /*apply_commutativity_closure=*/false);
  return PlanOn(&fresh, cond, attrs);
}

void ExpectSame(const Planned& warm, const Planned& fresh) {
  EXPECT_EQ(warm.ok, fresh.ok);
  EXPECT_EQ(warm.text, fresh.text);
  EXPECT_EQ(warm.cost_bits, fresh.cost_bits);
  EXPECT_EQ(warm.calls, fresh.calls);
  EXPECT_EQ(warm.subplans, fresh.subplans);
  EXPECT_EQ(warm.num_cts, fresh.num_cts);
}

class TemplateReuseTest : public ::testing::Test {
 protected:
  TemplateReuseTest() : cars_(MakeCarSource(2000, /*seed=*/7)) {
    attrs_ = *cars_.description.schema().MakeSet(cars_.example_attrs);
  }

  std::unique_ptr<SourceHandle> Handle() {
    return std::make_unique<SourceHandle>(cars_.description, cars_.table.get());
  }

  Dataset cars_;
  AttributeSet attrs_;
};

// Example 1.2 with the two price bounds equal or not. Interning makes equal
// atoms one node, so the rewrite and IPG's memo treat the two queries
// differently; each gets its own template, in either build order.
TEST_F(TemplateReuseTest, AtomsThatCoincideDoNotShareATemplate) {
  const auto query = [](int p1, int p2) {
    return Parse(
        "style = \"sedan\" and (size = \"compact\" or size = \"midsize\") "
        "and ((make = \"Toyota\" and price <= " + std::to_string(p1) +
        ") or (make = \"BMW\" and price <= " + std::to_string(p2) + "))");
  };
  const ConditionPtr differ_a = query(20000, 40000);
  const ConditionPtr shared_a = query(30000, 30000);
  const ConditionPtr differ_b = query(21000, 41000);
  const ConditionPtr shared_b = query(31000, 31000);
  for (const bool shared_first : {false, true}) {
    SCOPED_TRACE(shared_first ? "shared first" : "differing first");
    std::unique_ptr<SourceHandle> warm = Handle();
    const std::vector<ConditionPtr> order =
        shared_first ? std::vector<ConditionPtr>{shared_a, differ_a, shared_b,
                                                 differ_b}
                     : std::vector<ConditionPtr>{differ_a, shared_a, differ_b,
                                                 shared_b};
    for (size_t i = 0; i < order.size(); ++i) {
      SCOPED_TRACE(order[i]->ToString());
      const Planned planned = PlanOn(warm.get(), order[i], attrs_);
      EXPECT_EQ(planned.built, i < 2);
      ExpectSame(planned, PlanFresh(*warm, cars_.table.get(), order[i], attrs_));
    }
    EXPECT_EQ(warm->plan_templates()->size(), 2u);
    EXPECT_EQ(warm->plan_templates()->hits(), 2u);
  }
}

// A grammar literal pins a constant: `make = "BMW"` is its own form with
// its own exports, so a BMW query and an Audi query have different shapes
// (one template each) and different plans.
TEST(TemplatePinnedLiteralTest, PinnedConstantsHaveTheirOwnTemplate) {
  const Result<SourceDescription> description = ParseSsdl(R"(
    source cars(make: string, model: string, price: int) {
      cost 10.0 1.0;
      rule premium -> make = "BMW" and price <= $int;
      rule any -> make = $string;
      export premium : {make, model, price};
      export any : {make, model, price};
    })");
  ASSERT_TRUE(description.ok()) << description.status().ToString();
  Table table("cars", description->schema());
  const char* const kMakes[] = {"BMW", "Audi", "Fiat", "Ford"};
  for (int i = 0; i < 80; ++i) {
    ASSERT_TRUE(table
                    .AppendValues({Value::String(kMakes[i % 4]),
                                   Value::String("m" + std::to_string(i)),
                                   Value::Int(10000 + 500 * i)})
                    .ok());
  }
  AttributeSet attrs;
  attrs.Add(1);  // model
  const std::vector<std::string> texts = {
      "make = \"BMW\" and price <= 30000", "make = \"Audi\" and price <= 30000",
      "make = \"BMW\" and price <= 25000", "make = \"Fiat\" and price <= 20000"};
  for (const bool reverse : {false, true}) {
    SourceHandle warm(*description, &table);
    std::vector<std::string> order = texts;
    if (reverse) std::swap(order[0], order[1]);
    for (const std::string& text : order) {
      SCOPED_TRACE(text);
      const ConditionPtr cond = Parse(text);
      const Planned planned = PlanOn(&warm, cond, attrs);
      ASSERT_TRUE(planned.ok);
      SourceHandle fresh(*description, &table);
      ExpectSame(planned, PlanOn(&fresh, cond, attrs));
      // The pinned form answers BMW queries with one source query; other
      // makes filter the price at the mediator.
      const bool bmw = text.find("BMW") != std::string::npos;
      EXPECT_EQ(planned.text.rfind("SQ[", 0) == 0, bmw) << planned.text;
    }
    EXPECT_EQ(warm.plan_templates()->size(), 2u);
    EXPECT_EQ(warm.plan_templates()->hits(), 2u);
  }
}

// Costs are read only by the cost pass: a health penalty set after the
// template was built changes the plan a warm template makes, exactly as it
// changes a fresh plan (a dear round trip makes one download cheaper than
// two selective queries), and clearing it changes the plan back.
TEST(TemplatePenaltyTest, PenaltyFlipsThePlanOfAWarmTemplate) {
  const Result<SourceDescription> description = ParseSsdl(R"(
    source R(a: string, p: int) {
      cost 5.0 1.0;
      rule byval -> a = $string;
      rule dl -> true;
      export byval : {a, p};
      export dl : {a, p};
    })");
  ASSERT_TRUE(description.ok()) << description.status().ToString();
  Table table("R", description->schema());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(table
                    .AppendValues({Value::String("v" + std::to_string(i % 10)),
                                   Value::Int(i)})
                    .ok());
  }
  const AttributeSet attrs = description->schema().AllAttributes();
  const auto query = [](int x, int y) {
    return Parse("a = \"v" + std::to_string(x) + "\" or a = \"v" +
                 std::to_string(y) + "\"");
  };
  HealthPenalty penalty;
  SourceHandle warm(*description, &table);
  warm.mutable_cost_model()->set_health_penalty(&penalty);
  const auto fresh_plan = [&](const ConditionPtr& cond) {
    SourceHandle fresh(*description, &table);
    fresh.mutable_cost_model()->set_health_penalty(&penalty);
    return PlanOn(&fresh, cond, attrs);
  };

  const Planned healthy = PlanOn(&warm, query(1, 2), attrs);
  EXPECT_TRUE(healthy.built);
  EXPECT_EQ(healthy.text.find("SQ[true]"), std::string::npos) << healthy.text;
  ExpectSame(healthy, fresh_plan(query(1, 2)));

  penalty.set_multiplier(100.0);
  const Planned penalized = PlanOn(&warm, query(3, 4), attrs);
  EXPECT_FALSE(penalized.built);
  EXPECT_NE(penalized.text.find("SQ[true]"), std::string::npos)
      << penalized.text;
  ExpectSame(penalized, fresh_plan(query(3, 4)));

  penalty.set_multiplier(1.0);
  const Planned healed = PlanOn(&warm, query(5, 6), attrs);
  EXPECT_EQ(healed.text.find("SQ[true]"), std::string::npos) << healed.text;
  ExpectSame(healed, fresh_plan(query(5, 6)));
  EXPECT_EQ(warm.plan_templates()->size(), 1u);
}

// Concurrency hammer (run under TSan by scripts/ci.sh): 8 threads plan one
// shape with their own constants on a cold handle. Racing builds keep one
// template, and every plan is the one a fresh handle makes.
TEST_F(TemplateReuseTest, ThreadsPlanOneShapeOnAColdHandle) {
  constexpr size_t kThreads = 8;
  constexpr size_t kQueries = 6;
  std::vector<ConditionPtr> conds;
  std::vector<Planned> expected;
  for (size_t i = 0; i < kThreads * kQueries; ++i) {
    conds.push_back(Parse(
        "style = \"sedan\" and (size = \"compact\" or size = \"midsize\") "
        "and ((make = \"Toyota\" and price <= " +
        std::to_string(15000 + 97 * i) + ") or (make = \"BMW\" and price <= " +
        std::to_string(30000 + 89 * i) + "))"));
    expected.push_back(
        PlanFresh(*Handle(), cars_.table.get(), conds.back(), attrs_));
  }
  std::unique_ptr<SourceHandle> cold = Handle();
  std::vector<Planned> got(conds.size());
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (size_t q = 0; q < kQueries; ++q) {
        const size_t i = t * kQueries + q;
        got[i] = PlanOn(cold.get(), conds[i], attrs_);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t i = 0; i < conds.size(); ++i) {
    SCOPED_TRACE(conds[i]->ToString());
    ExpectSame(got[i], expected[i]);
  }
  const PlanTemplateCache& cache = *cold->plan_templates();
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_GE(cache.builds(), 1u);
  EXPECT_EQ(cache.builds() + cache.hits(), conds.size());
}

}  // namespace
}  // namespace gencompact
