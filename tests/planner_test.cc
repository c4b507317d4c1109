#include <gtest/gtest.h>

#include <set>

#include "exec/executor.h"
#include "expr/condition_parser.h"
#include "plan/plan_validator.h"
#include "planner/epg.h"
#include "planner/gen_compact.h"
#include "planner/gen_modular.h"
#include "planner/ipg.h"
#include "planner/mark.h"
#include "ssdl/ssdl_parser.h"
#include "workload/datasets.h"

namespace gencompact {
namespace {

ConditionPtr Parse(const std::string& text) {
  Result<ConditionPtr> cond = ParseCondition(text);
  EXPECT_TRUE(cond.ok()) << cond.status().ToString();
  return std::move(cond).value();
}

SourceDescription ParseDescription(const std::string& text) {
  Result<SourceDescription> description = ParseSsdl(text);
  EXPECT_TRUE(description.ok()) << description.status().ToString();
  return std::move(description).value();
}

// Example 4.1 source with a small concrete instance.
class Example41Fixture : public ::testing::Test {
 protected:
  Example41Fixture()
      : description_(ParseDescription(R"(
          source R(make: string, model: string, year: int,
                   color: string, price: int) {
            cost 10.0 1.0;
            rule s1 -> make = $string and price < $int;
            rule s2 -> make = $string and color = $string;
            export s1 : {make, model, year, color};
            export s2 : {make, model, year};
          })")),
        table_("R", description_.schema()) {
    const auto add = [this](const char* make, const char* model, int64_t year,
                            const char* color, int64_t price) {
      ASSERT_TRUE(table_
                      .AppendValues({Value::String(make), Value::String(model),
                                     Value::Int(year), Value::String(color),
                                     Value::Int(price)})
                      .ok());
    };
    add("BMW", "318i", 1996, "red", 21000);
    add("BMW", "528i", 1997, "black", 38000);
    add("BMW", "735i", 1998, "silver", 52000);
    add("BMW", "M3", 1998, "red", 39000);
    add("Toyota", "Corolla", 1997, "red", 13000);
    add("Toyota", "Camry", 1998, "blue", 19000);
    handle_ = std::make_unique<SourceHandle>(description_, &table_);
  }

  AttributeSet Attrs(const std::vector<std::string>& names) {
    const Result<AttributeSet> set = description_.schema().MakeSet(names);
    EXPECT_TRUE(set.ok());
    return *set;
  }

  SourceDescription description_;
  Table table_;
  std::unique_ptr<SourceHandle> handle_;
};

TEST_F(Example41Fixture, Pr1ReturnsPurePlanWhenSupported) {
  Ipg ipg(handle_.get());
  const PlanPtr plan =
      ipg.Plan(Parse("make = \"BMW\" and price < 40000"), Attrs({"model"}));
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->kind(), PlanNode::Kind::kSourceQuery);
  EXPECT_TRUE(ValidatePlan(*plan, handle_->checker()).ok());
}

TEST_F(Example41Fixture, ClosureEnablesReorderedPurePlan) {
  // Example 5.1's t0: (price < 40000 ∧ color = "red" ∧ make = "BMW") — no
  // part is evaluable in the written order, but the closed description
  // accepts the reordering as the grouped queries.
  Ipg ipg(handle_.get());
  const PlanPtr plan = ipg.Plan(
      Parse("price < 40000 and color = \"red\" and make = \"BMW\""),
      Attrs({"model", "year"}));
  ASSERT_NE(plan, nullptr);
  EXPECT_TRUE(ValidatePlan(*plan, handle_->checker()).ok());

  // And the answer matches direct evaluation.
  Source source(&table_, &handle_->description());
  Executor executor(&source);
  const Result<RowSet> rows = executor.Execute(*plan);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 2u);  // the 318i and the M3 are red BMWs < 40000
}

TEST_F(Example41Fixture, DisjunctionSplitsIntoTwoQueries) {
  // Example 1.1's shape on the car source: the source takes one make at a
  // time; the planner must union two source queries.
  Ipg ipg(handle_.get());
  const PlanPtr plan = ipg.Plan(
      Parse("(make = \"BMW\" and price < 40000) or "
            "(make = \"Toyota\" and price < 20000)"),
      Attrs({"model"}));
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->kind(), PlanNode::Kind::kUnion);
  EXPECT_EQ(plan->CountSourceQueries(), 2u);
  EXPECT_TRUE(ValidatePlan(*plan, handle_->checker()).ok());
}

TEST_F(Example41Fixture, InfeasibleQueryReturnsNull) {
  Ipg ipg(handle_.get());
  // No capability mentions year conditions, and downloading is not allowed.
  EXPECT_EQ(ipg.Plan(Parse("year = 1998"), Attrs({"model"})), nullptr);
}

TEST_F(Example41Fixture, ExportLimitsMatter) {
  Ipg ipg(handle_.get());
  // s2 (make+color) does not export price.
  const PlanPtr plan = ipg.Plan(Parse("make = \"BMW\" and color = \"red\""),
                                Attrs({"price"}));
  EXPECT_EQ(plan, nullptr);
}

TEST_F(Example41Fixture, MediatorEvaluationOnExportedAttrs) {
  // (make = BMW ∧ price < 40000 ∧ color = red): s1 exports color, so the
  // mediator can filter color on the s1 query result, or intersect with an
  // s2 query. Either way a feasible plan must exist and be correct.
  Ipg ipg(handle_.get());
  const PlanPtr plan = ipg.Plan(
      Parse("make = \"BMW\" and price < 40000 and color = \"red\""),
      Attrs({"model", "year"}));
  ASSERT_NE(plan, nullptr);
  EXPECT_TRUE(ValidatePlan(*plan, handle_->checker()).ok());

  Source source(&table_, &handle_->description());
  Executor executor(&source);
  const Result<RowSet> rows = executor.Execute(*plan);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);  // 318i and M3
}

TEST_F(Example41Fixture, GenCompactPlannerEndToEnd) {
  GenCompactPlanner planner(handle_.get());
  const Result<PlanPtr> plan = planner.Plan(
      Parse("(make = \"BMW\" and price < 40000) or "
            "(make = \"Toyota\" and price < 20000)"),
      Attrs({"make", "model"}));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(ValidatePlan(**plan, handle_->checker()).ok());
  EXPECT_GT(planner.stats().num_cts, 0u);
  EXPECT_GT(planner.stats().best_cost, 0.0);
}

TEST_F(Example41Fixture, GenCompactReportsNoFeasiblePlan) {
  GenCompactPlanner planner(handle_.get());
  const Result<PlanPtr> plan = planner.Plan(Parse("year = 1998"), Attrs({"model"}));
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kNoFeasiblePlan);
}

TEST_F(Example41Fixture, Section4FeasibilityExample) {
  // Section 4's worked example, with the hand-built mediator plans of
  // Example 3.1. n1 = (make = BMW ∧ price < 40000), n2 = (color = red ∨
  // color = black), A = {model, year}.
  const ConditionPtr n1 = Parse("make = \"BMW\" and price < 40000");
  const ConditionPtr n2 = Parse("color = \"red\" or color = \"black\"");
  const AttributeSet a = Attrs({"model", "year"});
  Checker* checker = handle_->checker();

  // "SP(n1, A, R) is a supported query."
  EXPECT_TRUE(checker->Supports(*n1, a));
  // "The second source query SP(n2, A, R) is not supported."
  EXPECT_FALSE(checker->Supports(*n2, a));

  // Hence the plan SP(n1,A,R) ∩ SP(n2,A,R) is not feasible...
  const PlanPtr intersect_plan = PlanNode::IntersectOf(
      {PlanNode::SourceQuery(n1, a), PlanNode::SourceQuery(n2, a)});
  EXPECT_FALSE(ValidatePlan(*intersect_plan, checker).ok());

  // ...while SP(n2, A, SP(n1, A ∪ Attr(n2), R)) is feasible, because
  // A ∪ Attr(n2) ⊆ Check(Cond(n1), R).
  const AttributeSet a_plus =
      a.Union(*n2->Attributes(description_.schema()));
  const PlanPtr mediator_plan =
      PlanNode::MediatorSp(n2, a, PlanNode::SourceQuery(n1, a_plus));
  EXPECT_TRUE(ValidatePlan(*mediator_plan, checker).ok());
}

TEST_F(Example41Fixture, MarkModuleMarksEveryNode) {
  const ConditionPtr ct = Parse(
      "(make = \"BMW\" and price < 40000) and (color = \"red\" or "
      "color = \"black\")");
  MarkedTree marked(ct, handle_->checker());
  EXPECT_EQ(marked.num_nodes(), 7u);  // root, 2 connectors, 4 atoms
  // Root not supported; first child supported with s1 exports.
  EXPECT_TRUE(marked.ExportsOf(ct.get()).empty());
  EXPECT_FALSE(marked.ExportsOf(ct->children()[0].get()).empty());
  EXPECT_TRUE(marked.ExportsOf(ct->children()[1].get()).empty());
  EXPECT_TRUE(marked.CanExport(ct->children()[0].get(), Attrs({"model"})));
}

TEST_F(Example41Fixture, EpgGeneratesChoiceSpace) {
  Epg epg(handle_.get());
  const PlanPtr space = epg.Generate(
      Parse("(make = \"BMW\" and price < 40000) or "
            "(make = \"Toyota\" and price < 20000)"),
      Attrs({"model"}));
  ASSERT_NE(space, nullptr);
  const PlanPtr resolved = handle_->cost_model().ResolveChoices(space);
  EXPECT_TRUE(resolved->IsResolved());
  EXPECT_TRUE(ValidatePlan(*resolved, handle_->checker()).ok());
}

TEST_F(Example41Fixture, EpgReturnsNullWhenInfeasible) {
  Epg epg(handle_.get());
  EXPECT_EQ(epg.Generate(Parse("year = 1998"), Attrs({"model"})), nullptr);
}

TEST_F(Example41Fixture, GenModularFindsPlan) {
  GenModularPlanner planner(handle_.get());
  const Result<PlanPtr> plan = planner.Plan(
      Parse("price < 40000 and color = \"red\" and make = \"BMW\""),
      Attrs({"model", "year"}));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(ValidatePlan(**plan, handle_->checker()).ok());
  EXPECT_GT(planner.stats().num_cts, 1u);
}

// Example 6.1: R supports SP(c1, A), SP(c2, A ∪ Attr(c3)), SP(c3, A ∪
// Attr(c2)). The target SP(c1 ∧ c2 ∧ c3, A) has no pure plan, but IPG must
// find the MaxEval-style impure plans.
TEST(Example61Test, MaxEvalPlansFound) {
  const SourceDescription description = ParseDescription(R"(
    source R(a: string, b: string, c: string, x: string) {
      cost 10.0 1.0;
      rule f1 -> a = $string;
      rule f2 -> b = $string;
      rule f3 -> c = $string;
      export f1 : {x};
      export f2 : {x, c};
      export f3 : {x, b};
    })");
  Table table("R", description.schema());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(table
                    .AppendValues({Value::String(i % 2 ? "a1" : "a2"),
                                   Value::String(i % 4 < 2 ? "b1" : "b2"),
                                   Value::String(i < 4 ? "c1" : "c2"),
                                   Value::String("x" + std::to_string(i))})
                    .ok());
  }
  SourceHandle handle(description, &table);

  // The paper's combination semantics (strict mode): sub-plans request A.
  IpgOptions options;
  options.safe_combination = false;
  Ipg ipg(&handle, options);

  AttributeSet x_attr;
  x_attr.Add(*description.schema().IndexOf("x"));
  const PlanPtr plan = ipg.Plan(
      Parse("a = \"a1\" and b = \"b1\" and c = \"c1\""), x_attr);
  ASSERT_NE(plan, nullptr);
  EXPECT_TRUE(ValidatePlan(*plan, handle.checker()).ok());
  // Best plan uses 2 source queries: SP(c1,A,R) ∩ SP(c3,A,SP(c2,A∪{c},R))
  // (or the symmetric variant) — not the 3-query all-singleton plan.
  EXPECT_EQ(plan->CountSourceQueries(), 2u);
}

TEST(DownloadOnlyTest, PlanIsDownloadPlusMediatorFilter) {
  const SourceDescription description = ParseDescription(R"(
    source R(a: string, p: int) {
      cost 5.0 1.0;
      rule dl -> true;
      export dl : {a, p};
    })");
  Table table("R", description.schema());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(table
                    .AppendValues({Value::String("v" + std::to_string(i % 3)),
                                   Value::Int(i)})
                    .ok());
  }
  SourceHandle handle(description, &table);
  Ipg ipg(&handle);
  AttributeSet a_attr;
  a_attr.Add(0);
  const PlanPtr plan = ipg.Plan(Parse("a = \"v1\" and p < 5"), a_attr);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->kind(), PlanNode::Kind::kMediatorSp);
  ASSERT_EQ(plan->children().size(), 1u);
  EXPECT_TRUE(plan->children()[0]->condition()->is_true());
  EXPECT_TRUE(ValidatePlan(*plan, handle.checker()).ok());

  Source source(&table, &handle.description());
  Executor executor(&source);
  const Result<RowSet> rows = executor.Execute(*plan);
  ASSERT_TRUE(rows.ok());
  // a = "v1" holds at p ∈ {1, 4, 7}; p < 5 keeps {1, 4}; projection to {a}
  // deduplicates to the single value "v1".
  EXPECT_EQ(rows->size(), 1u);
}

TEST_F(Example41Fixture, PruningRulesDoNotChangeOptimalCost) {
  const ConditionPtr cond = Parse(
      "(make = \"BMW\" and price < 40000 and color = \"red\") or "
      "(make = \"Toyota\" and price < 20000)");
  const AttributeSet attrs = Attrs({"model", "year"});

  double baseline_cost = -1;
  for (int mask = 0; mask < 8; ++mask) {
    IpgOptions options;
    options.pr1 = mask & 1;
    options.pr2 = mask & 2;
    options.pr3 = mask & 4;
    Ipg ipg(handle_.get(), options);
    const PlanPtr plan = ipg.Plan(cond, attrs);
    ASSERT_NE(plan, nullptr) << "mask=" << mask;
    const double cost = handle_->cost_model().PlanCost(*plan);
    if (baseline_cost < 0) {
      baseline_cost = cost;
    } else {
      EXPECT_NEAR(cost, baseline_cost, 1e-9) << "mask=" << mask;
    }
  }
}

TEST_F(Example41Fixture, PruningReducesWork) {
  const ConditionPtr cond = Parse(
      "(make = \"BMW\" and price < 40000 and color = \"red\") or "
      "(make = \"Toyota\" and price < 20000) or "
      "(make = \"Toyota\" and color = \"blue\")");
  const AttributeSet attrs = Attrs({"model"});

  IpgOptions all_on;
  Ipg pruned(handle_.get(), all_on);
  ASSERT_NE(pruned.Plan(cond, attrs), nullptr);

  IpgOptions all_off;
  all_off.pr1 = all_off.pr2 = all_off.pr3 = false;
  Ipg unpruned(handle_.get(), all_off);
  ASSERT_NE(unpruned.Plan(cond, attrs), nullptr);

  EXPECT_LT(pruned.stats().total_subplans, unpruned.stats().total_subplans);
}

// A statistics estimator that records every estimate asked of it, by the
// condition's structure (not its intern id) and the projection.
class RecordingEstimator : public CardinalityEstimator {
 public:
  RecordingEstimator(const Schema* schema, const TableStats* stats)
      : inner_(schema, stats) {}

  double EstimateRows(const ConditionNode& cond) const override {
    ++rows_only_;
    return inner_.EstimateRows(cond);
  }
  double EstimateResultRows(const ConditionNode& cond,
                            const AttributeSet& attrs) const override {
    asked_.push_back({cond.fingerprint(), attrs.bits()});
    return inner_.EstimateResultRows(cond, attrs);
  }

  const std::vector<std::pair<uint64_t, uint64_t>>& asked() const {
    return asked_;
  }
  size_t rows_only() const { return rows_only_; }
  void Clear() {
    asked_.clear();
    rows_only_ = 0;
  }

 private:
  StatsCardinalityEstimator inner_;
  mutable std::vector<std::pair<uint64_t, uint64_t>> asked_;
  mutable size_t rows_only_ = 0;
};

// One GenCompact plan of Example 1.2 asks the estimator about each source
// query once. The first plan on a handle builds the query's template and
// asks the Checker about each condition once; a second plan of the same
// shape reuses the template, asks the Checker nothing, and estimates the
// same source queries again (estimates are per query, never cached).
TEST(IpgQuestionsTest, EachQuestionIsAskedOncePerPlan) {
  const Dataset cars = MakeCarSource(2000, /*seed=*/7);
  const TableStats stats = TableStats::Compute(*cars.table);
  auto recording =
      std::make_unique<RecordingEstimator>(&cars.description.schema(), &stats);
  RecordingEstimator* estimator = recording.get();
  SourceHandle handle(cars.description, cars.table.get(),
                      std::move(recording));
  const Result<AttributeSet> attrs =
      handle.schema().MakeSet(cars.example_attrs);
  ASSERT_TRUE(attrs.ok());

  size_t first_estimates = 0;
  for (int run = 0; run < 2; ++run) {
    estimator->Clear();
    const size_t checks_before = handle.checker()->num_checks();
    GenCompactPlanner planner(&handle);
    ASSERT_TRUE(planner.Plan(cars.example_condition, *attrs).ok());
    const IpgStats ipg = planner.stats().ipg;
    const size_t checks = handle.checker()->num_checks() - checks_before;

    const std::vector<std::pair<uint64_t, uint64_t>>& asked =
        estimator->asked();
    const std::set<std::pair<uint64_t, uint64_t>> distinct(asked.begin(),
                                                            asked.end());
    EXPECT_EQ(distinct.size(), asked.size())
        << asked.size() - distinct.size() << " repeated estimates in run "
        << run;
    EXPECT_EQ(asked.size(), ipg.cost_estimates);
    EXPECT_EQ(estimator->rows_only(), 0u);  // the paper's model (k3 = 0)
    EXPECT_EQ(checks, ipg.checks);
    EXPECT_GT(ipg.cost_estimates, 0u);

    if (run == 0) {
      EXPECT_TRUE(planner.stats().template_built);
      EXPECT_GT(ipg.checks, 0u);
      first_estimates = asked.size();
    } else {
      EXPECT_FALSE(planner.stats().template_built);
      EXPECT_EQ(ipg.checks, 0u);
      EXPECT_EQ(asked.size(), first_estimates);
    }
  }
}

}  // namespace
}  // namespace gencompact
