#include <gtest/gtest.h>

#include <set>

#include "cost/cost_model.h"
#include "expr/condition_parser.h"
#include "plan/plan.h"
#include "plan/plan_printer.h"
#include "plan/plan_validator.h"
#include "planner/source_handle.h"
#include "ssdl/ssdl_parser.h"

namespace gencompact {
namespace {

ConditionPtr Parse(const std::string& text) {
  Result<ConditionPtr> cond = ParseCondition(text);
  EXPECT_TRUE(cond.ok()) << cond.status().ToString();
  return std::move(cond).value();
}

/// Estimator with a fixed per-condition row count for deterministic tests.
class FakeEstimator : public CardinalityEstimator {
 public:
  explicit FakeEstimator(double rows) : rows_(rows) {}
  double EstimateRows(const ConditionNode&) const override { return rows_; }

 private:
  double rows_;
};

TEST(PlanTest, FactoriesAndAccessors) {
  const ConditionPtr cond = Parse("a = 1");
  AttributeSet attrs;
  attrs.Add(0);
  const PlanPtr sq = PlanNode::SourceQuery(cond, attrs);
  EXPECT_EQ(sq->kind(), PlanNode::Kind::kSourceQuery);
  EXPECT_EQ(sq->CountSourceQueries(), 1u);
  EXPECT_TRUE(sq->IsResolved());

  const PlanPtr sp = PlanNode::MediatorSp(Parse("b = 2"), attrs, sq);
  EXPECT_EQ(sp->kind(), PlanNode::Kind::kMediatorSp);
  EXPECT_EQ(sp->children().size(), 1u);
  EXPECT_EQ(sp->CountSourceQueries(), 1u);

  const PlanPtr u = PlanNode::UnionOf({sq, sp});
  EXPECT_EQ(u->kind(), PlanNode::Kind::kUnion);
  EXPECT_EQ(u->CountSourceQueries(), 2u);
  EXPECT_EQ(u->Size(), 4u);
}

TEST(PlanTest, SingleChildSetOpsCollapse) {
  const PlanPtr sq = PlanNode::SourceQuery(Parse("a = 1"), AttributeSet());
  EXPECT_EQ(PlanNode::UnionOf({sq}).get(), sq.get());
  EXPECT_EQ(PlanNode::IntersectOf({sq}).get(), sq.get());
  EXPECT_EQ(PlanNode::Choice({sq}).get(), sq.get());
}

TEST(PlanTest, ChoiceMarksUnresolved) {
  const PlanPtr a = PlanNode::SourceQuery(Parse("a = 1"), AttributeSet());
  const PlanPtr b = PlanNode::SourceQuery(Parse("a = 2"), AttributeSet());
  const PlanPtr choice = PlanNode::Choice({a, b});
  EXPECT_FALSE(choice->IsResolved());
  EXPECT_TRUE(a->IsResolved());
}

TEST(CostModelTest, SourceQueryCostIsLinear) {
  const FakeEstimator estimator(100);
  const CostModel model(10.0, 0.5, &estimator);
  EXPECT_DOUBLE_EQ(model.SourceQueryCost(*Parse("a = 1"), AttributeSet()),
                   10.0 + 0.5 * 100);
}

TEST(CostModelTest, PlanCostSumsSourceQueriesOnly) {
  const FakeEstimator estimator(100);
  const CostModel model(10.0, 0.5, &estimator);
  AttributeSet attrs;
  const PlanPtr sq1 = PlanNode::SourceQuery(Parse("a = 1"), attrs);
  const PlanPtr sq2 = PlanNode::SourceQuery(Parse("a = 2"), attrs);
  const PlanPtr plan =
      PlanNode::UnionOf({sq1, PlanNode::MediatorSp(Parse("b = 2"), attrs, sq2)});
  // Two source queries at 60 each; mediator ops are free (Equation 1).
  EXPECT_DOUBLE_EQ(model.PlanCost(*plan), 120.0);
}

TEST(CostModelTest, MediatorExtensionTermCharges) {
  const FakeEstimator estimator(100);
  const CostModel paper(10.0, 0.5, &estimator, /*mediator_k3=*/0.0);
  const CostModel extended(10.0, 0.5, &estimator, /*mediator_k3=*/0.1);
  AttributeSet attrs;
  const PlanPtr plan = PlanNode::MediatorSp(
      Parse("b = 2"), attrs, PlanNode::SourceQuery(Parse("a = 1"), attrs));
  EXPECT_DOUBLE_EQ(paper.PlanCost(*plan), 60.0);
  EXPECT_DOUBLE_EQ(extended.PlanCost(*plan), 60.0 + 0.1 * 100);
}

TEST(CostModelTest, ChoiceCostsMinimum) {
  const FakeEstimator estimator(100);
  const CostModel model(10.0, 0.5, &estimator);
  AttributeSet attrs;
  const PlanPtr cheap = PlanNode::SourceQuery(Parse("a = 1"), attrs);
  const PlanPtr expensive = PlanNode::UnionOf(
      {PlanNode::SourceQuery(Parse("a = 2"), attrs),
       PlanNode::SourceQuery(Parse("a = 3"), attrs)});
  const PlanPtr choice = PlanNode::Choice({expensive, cheap});
  EXPECT_DOUBLE_EQ(model.PlanCost(*choice), 60.0);

  const PlanPtr resolved = model.ResolveChoices(choice);
  EXPECT_TRUE(resolved->IsResolved());
  EXPECT_EQ(resolved.get(), cheap.get());
}

TEST(CostModelTest, ResolveChoicesDescendsNestedStructure) {
  const FakeEstimator estimator(10);
  const CostModel model(1.0, 1.0, &estimator);
  AttributeSet attrs;
  const PlanPtr a = PlanNode::SourceQuery(Parse("a = 1"), attrs);
  const PlanPtr b = PlanNode::SourceQuery(Parse("a = 2"), attrs);
  const PlanPtr nested = PlanNode::IntersectOf(
      {PlanNode::Choice({PlanNode::UnionOf({a, b}), a}), b});
  const PlanPtr resolved = model.ResolveChoices(nested);
  EXPECT_TRUE(resolved->IsResolved());
  EXPECT_EQ(resolved->CountSourceQueries(), 2u);  // picked `a` inside
}

TEST(CostModelTest, ResolveChoicesKeepsTheFirstCheapestChild) {
  const FakeEstimator estimator(10);
  const CostModel model(1.0, 1.0, &estimator);
  AttributeSet attrs;
  const PlanPtr first = PlanNode::SourceQuery(Parse("a = 1"), attrs);
  const PlanPtr second = PlanNode::SourceQuery(Parse("a = 2"), attrs);
  EXPECT_EQ(model.ResolveChoices(PlanNode::Choice({first, second})).get(),
            first.get());
  EXPECT_EQ(model.ResolveChoices(PlanNode::Choice({second, first})).get(),
            second.get());
}

// Counts every estimate asked of it; rows vary with the condition so that
// Choices have real decisions to make.
class CountingEstimator : public CardinalityEstimator {
 public:
  double EstimateRows(const ConditionNode& cond) const override {
    return 1.0 + static_cast<double>(cond.fingerprint() % 13);
  }
  double EstimateResultRows(const ConditionNode& cond,
                            const AttributeSet& attrs) const override {
    ++calls;
    distinct.insert({cond.fingerprint(), attrs.bits()});
    return EstimateRows(cond);
  }
  mutable size_t calls = 0;
  mutable std::set<std::pair<uint64_t, uint64_t>> distinct;
};

// A Choice DAG in which every level refers to the level below twice, so it
// has 2^20 root-to-leaf paths over 42 source queries: PlanCost,
// ResolveChoices and ResolveChoicesAvoiding each resolve it in one memoized
// walk that estimates every distinct source query once.
TEST(CostModelTest, SharedChoiceDagIsEstimatedOncePerSourceQuery) {
  const Result<SourceDescription> description = ParseSsdl(R"(
    source R(a: int) {
      rule s -> a = $int;
      export s : {a};
    })");
  ASSERT_TRUE(description.ok());
  Table table("R", description->schema());
  auto counting = std::make_unique<CountingEstimator>();
  const CountingEstimator* estimator = counting.get();
  const SourceHandle handle(*description, &table, std::move(counting));
  const CostModel& model = handle.cost_model();

  AttributeSet attrs;
  attrs.Add(0);
  const auto sq = [&attrs](int i) {
    return PlanNode::SourceQuery(Parse("a = " + std::to_string(i)), attrs);
  };
  constexpr int kDepth = 20;
  PlanPtr space = PlanNode::Choice({sq(0), sq(1)});
  for (int level = 1; level <= kDepth; ++level) {
    space = PlanNode::Choice(
        {PlanNode::UnionOf({space, sq(2 * level)}),
         PlanNode::IntersectOf({sq(2 * level + 1), space})});
  }
  const size_t source_queries = 2 * kDepth + 2;

  const double cost = model.PlanCost(*space);
  EXPECT_EQ(estimator->calls, source_queries);
  EXPECT_EQ(estimator->distinct.size(), source_queries);

  estimator->calls = 0;
  const PlanPtr resolved = model.ResolveChoices(space);
  EXPECT_EQ(estimator->calls, source_queries);
  ASSERT_TRUE(resolved->IsResolved());
  EXPECT_EQ(model.PlanCost(*resolved), cost);

  // Avoiding the level-1 union's own query sends every level through the
  // intersection, whatever it costs.
  SubQueryAvoidSet avoid;
  avoid.insert(SubQueryKey(*Parse("a = 2"), attrs));
  estimator->calls = 0;
  const PlanPtr avoiding = model.ResolveChoicesAvoiding(space, avoid);
  EXPECT_LE(estimator->calls, source_queries);
  ASSERT_NE(avoiding, nullptr);
  EXPECT_TRUE(PlanAvoids(*avoiding, avoid));
  EXPECT_GE(model.PlanCost(*avoiding), cost);
}

TEST(PlanPrinterTest, RendersTreeWithCosts) {
  const FakeEstimator estimator(5);
  const CostModel model(2.0, 1.0, &estimator);
  AttributeSet attrs;
  attrs.Add(0);
  const Schema schema({{"a", ValueType::kInt}});
  const PlanPtr plan = PlanNode::MediatorSp(
      Parse("a = 2"), attrs, PlanNode::SourceQuery(Parse("a = 1"), attrs));
  const std::string text = PrintPlan(*plan, schema, &model);
  EXPECT_NE(text.find("MediatorSelectProject"), std::string::npos);
  EXPECT_NE(text.find("SourceQuery"), std::string::npos);
  EXPECT_NE(text.find("est_rows=5"), std::string::npos);
}

TEST(PlanValidatorTest, AcceptsSupportedSourceQuery) {
  const Result<SourceDescription> description = ParseSsdl(R"(
    source R(a: string, b: int) {
      rule s1 -> a = $string;
      export s1 : {a, b};
    })");
  ASSERT_TRUE(description.ok());
  Checker checker(&*description);
  AttributeSet attrs;
  attrs.Add(1);
  const PlanPtr plan = PlanNode::SourceQuery(Parse("a = \"x\""), attrs);
  EXPECT_TRUE(ValidatePlan(*plan, &checker).ok());
  EXPECT_TRUE(ValidatePlanFor(*plan, attrs, &checker).ok());
}

TEST(PlanValidatorTest, RejectsUnsupportedSourceQuery) {
  const Result<SourceDescription> description = ParseSsdl(R"(
    source R(a: string, b: int) {
      rule s1 -> a = $string;
      export s1 : {a};
    })");
  ASSERT_TRUE(description.ok());
  Checker checker(&*description);
  // Condition unsupported:
  EXPECT_FALSE(
      ValidatePlan(*PlanNode::SourceQuery(Parse("b = 1"), AttributeSet()),
                   &checker)
          .ok());
  // Export insufficient:
  AttributeSet b_attr;
  b_attr.Add(1);
  EXPECT_FALSE(
      ValidatePlan(*PlanNode::SourceQuery(Parse("a = \"x\""), b_attr), &checker)
          .ok());
}

TEST(PlanValidatorTest, RejectsMediatorSelectionOnMissingAttrs) {
  const Result<SourceDescription> description = ParseSsdl(R"(
    source R(a: string, b: int) {
      rule s1 -> a = $string;
      export s1 : {a};
    })");
  ASSERT_TRUE(description.ok());
  Checker checker(&*description);
  AttributeSet a_attr;
  a_attr.Add(0);
  // Mediator filter on b, but the child only provides a.
  const PlanPtr plan = PlanNode::MediatorSp(
      Parse("b = 1"), a_attr, PlanNode::SourceQuery(Parse("a = \"x\""), a_attr));
  const Status status = ValidatePlan(*plan, &checker);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kUnsupported);
}

TEST(PlanValidatorTest, RejectsUnresolvedChoice) {
  const Result<SourceDescription> description = ParseSsdl(R"(
    source R(a: string) {
      rule s1 -> a = $string;
      export s1 : {a};
    })");
  ASSERT_TRUE(description.ok());
  Checker checker(&*description);
  const PlanPtr a = PlanNode::SourceQuery(Parse("a = \"x\""), AttributeSet());
  const PlanPtr b = PlanNode::SourceQuery(Parse("a = \"y\""), AttributeSet());
  EXPECT_EQ(ValidatePlan(*PlanNode::Choice({a, b}), &checker).code(),
            StatusCode::kInternal);
}

TEST(PlanValidatorTest, ValidatePlanForChecksOutputAttrs) {
  const Result<SourceDescription> description = ParseSsdl(R"(
    source R(a: string, b: int) {
      rule s1 -> a = $string;
      export s1 : {a, b};
    })");
  ASSERT_TRUE(description.ok());
  Checker checker(&*description);
  AttributeSet a_attr;
  a_attr.Add(0);
  AttributeSet b_attr;
  b_attr.Add(1);
  const PlanPtr plan = PlanNode::SourceQuery(Parse("a = \"x\""), a_attr);
  EXPECT_TRUE(ValidatePlanFor(*plan, a_attr, &checker).ok());
  EXPECT_FALSE(ValidatePlanFor(*plan, b_attr, &checker).ok());
}

}  // namespace
}  // namespace gencompact
