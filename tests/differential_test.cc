// Seeded differential harness: random SSDL capability mixes and random
// target queries, asserting two equivalences the rest of the PR leans on:
//
//   1. Cost parity — GenCompact (strict paper mode) and GenModular agree on
//      the optimal plan cost whenever neither hit an enumeration budget.
//      The two planners explore the same plan space by entirely different
//      routes (IPG vs per-CT EPG), so agreement is strong evidence neither
//      is silently dropping alternatives.
//
//   2. Answer equivalence — ANY resolution of the EPG Choice plan space
//      (the cost-optimal one and uniformly random ones alike) produces
//      exactly the same answer rows on the full attribute set. Choice
//      alternatives are semantically interchangeable; only their cost
//      differs. This is what makes breaker-aware cost penalties and
//      avoid-set re-planning safe: steering the pick never changes the
//      answer.
//
//   3. Template reuse — GenCompact re-costs one query shape's plan template
//      for every query's constants (TemplateTest below): a plan made from a
//      warm template is the plan a fresh handle makes, string and cost bits,
//      and its answer is the direct answer.
//
// The base seed comes from GENCOMPACT_TEST_SEED (default 439) so CI can run
// a seed matrix; each parameterized case derives independent sub-seeds.

#include <gtest/gtest.h>

#include <bit>
#include <cstdlib>

#include "exec/executor.h"
#include "expr/canonical.h"
#include "expr/condition_eval.h"
#include "plan/plan_validator.h"
#include "planner/epg.h"
#include "planner/gen_compact.h"
#include "planner/gen_modular.h"
#include "workload/random_capability.h"
#include "workload/random_condition.h"

namespace gencompact {
namespace {

uint64_t BaseSeed() {
  const char* env = std::getenv("GENCOMPACT_TEST_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 439;
}

Schema DifferentialSchema() {
  return Schema({{"s1", ValueType::kString},
                 {"s2", ValueType::kString},
                 {"n1", ValueType::kInt},
                 {"n2", ValueType::kInt}});
}

RowSet DirectAnswer(const Table& table, const ConditionNode& cond,
                    const AttributeSet& attrs) {
  const Schema& schema = table.schema();
  const RowLayout full(schema.AllAttributes(), schema.num_attributes());
  const RowLayout projected(attrs, schema.num_attributes());
  RowSet out(projected);
  for (const Row& row : table.rows()) {
    const Result<bool> matches = EvalCondition(cond, row, full, schema);
    EXPECT_TRUE(matches.ok());
    if (matches.ok() && *matches) out.Insert(full.Project(row, projected));
  }
  return out;
}

bool SameRows(const RowSet& a, const RowSet& b) {
  if (a.size() != b.size()) return false;
  for (const Row& row : a.rows()) {
    if (!b.Contains(row)) return false;
  }
  return true;
}

// One random source: table, capability description, handle, wrapper.
struct DifferentialEnv {
  std::unique_ptr<Table> table;
  SourceDescription description;
  std::unique_ptr<SourceHandle> handle;
  std::unique_ptr<Source> source;
  std::vector<AttributeDomain> domains;

  explicit DifferentialEnv(uint64_t seed) : description("src", DifferentialSchema()) {
    Rng rng(seed);
    const Schema schema = DifferentialSchema();
    table = MakeRandomTable("src", schema, /*rows=*/200, /*string_pool=*/10,
                            /*value_range=*/40, &rng);
    description = RandomCapability("src", schema, RandomCapabilityOptions{}, &rng);
    handle = std::make_unique<SourceHandle>(description, table.get());
    source = std::make_unique<Source>(table.get(), &handle->description());
    domains = ExtractDomains(*table, /*max_samples=*/6, &rng);
  }
};

class DifferentialTest : public ::testing::TestWithParam<int> {
 protected:
  uint64_t CaseSeed() const {
    return BaseSeed() * 1000003ull + static_cast<uint64_t>(GetParam()) * 7919ull;
  }
};

// Equivalence 1: 5 random (capability, query) pairs per parameter — the two
// generation schemes land on the same optimal cost unless a budget bit says
// one of them stopped enumerating.
TEST_P(DifferentialTest, GenCompactAndGenModularAgreeOnOptimalCost) {
  Rng rng(CaseSeed() + 1);
  for (int trial = 0; trial < 5; ++trial) {
    DifferentialEnv env(CaseSeed() * 31 + static_cast<uint64_t>(trial));
    RandomConditionOptions cond_options;
    cond_options.num_atoms = 2 + rng.NextIndex(3);
    const ConditionPtr cond = RandomCondition(env.domains, cond_options, &rng);
    AttributeSet attrs;
    attrs.Add(static_cast<int>(rng.NextIndex(4)));
    attrs.Add(static_cast<int>(rng.NextIndex(4)));

    GenCompactOptions gc_options;
    gc_options.ipg.safe_combination = false;  // paper mode: same space as EPG
    gc_options.max_cts = 512;
    GenCompactPlanner gencompact(env.handle.get(), gc_options);
    const Result<PlanPtr> gc = gencompact.Plan(cond, attrs);

    GenModularOptions gm_options;
    gm_options.rewrite.max_cts = 2048;
    GenModularPlanner genmodular(env.handle.get(), gm_options);
    const Result<PlanPtr> gm = genmodular.Plan(cond, attrs);

    ASSERT_EQ(gc.ok(), gm.ok())
        << "feasibility diverged on " << cond->ToString();
    if (!gc.ok()) continue;

    const CostModel& model = env.handle->cost_model();
    const double gc_cost = model.PlanCost(**gc);
    const double gm_cost = model.PlanCost(**gm);
    if (!genmodular.stats().rewrite_budget_exhausted &&
        !genmodular.stats().epg_incomplete &&
        !gencompact.stats().rewrite_budget_exhausted &&
        !gencompact.stats().ipg.incomplete) {
      EXPECT_NEAR(gc_cost, gm_cost, 1e-6)
          << "plan spaces diverged on " << cond->ToString()
          << "\nGC: " << (*gc)->ToShortString()
          << "\nGM: " << (*gm)->ToShortString();
    }
  }
}

// Equivalence 2: on the full attribute set (strict-mode plans are exact
// there), the cost-optimal Choice resolution and three uniformly random
// resolutions of the same EPG space return identical rows — and those rows
// are the direct answer.
TEST_P(DifferentialTest, RandomChoiceResolutionsMatchOptimalAnswer) {
  Rng rng(CaseSeed() + 2);
  for (int trial = 0; trial < 5; ++trial) {
    DifferentialEnv env(CaseSeed() * 37 + static_cast<uint64_t>(trial) + 1);
    RandomConditionOptions cond_options;
    cond_options.num_atoms = 2 + rng.NextIndex(3);
    const ConditionPtr cond = RandomCondition(env.domains, cond_options, &rng);
    const AttributeSet attrs = env.handle->schema().AllAttributes();

    const ConditionPtr canonical = Canonicalize(cond);
    Epg epg(env.handle.get());
    const PlanPtr space = epg.Generate(canonical, attrs);
    if (space == nullptr) continue;  // this capability mix can't answer it

    const CostModel& model = env.handle->cost_model();
    const PlanPtr optimal = model.ResolveChoices(space);
    ASSERT_NE(optimal, nullptr);
    ASSERT_TRUE(
        ValidatePlanFor(*optimal, attrs, env.handle->checker()).ok());

    Executor executor(env.source.get());
    const Result<RowSet> optimal_rows = executor.Execute(*optimal);
    ASSERT_TRUE(optimal_rows.ok()) << optimal_rows.status().ToString();

    const RowSet expected = DirectAnswer(*env.table, *cond, attrs);
    EXPECT_TRUE(SameRows(*optimal_rows, expected))
        << "optimal resolution wrong on " << cond->ToString();

    for (int pick = 0; pick < 3; ++pick) {
      const PlanPtr random_plan = model.ResolveChoicesRandom(space, &rng);
      ASSERT_NE(random_plan, nullptr);
      ASSERT_TRUE(
          ValidatePlanFor(*random_plan, attrs, env.handle->checker()).ok())
          << random_plan->ToShortString();
      Executor random_exec(env.source.get());
      const Result<RowSet> random_rows = random_exec.Execute(*random_plan);
      ASSERT_TRUE(random_rows.ok()) << random_rows.status().ToString();
      EXPECT_TRUE(SameRows(*random_rows, *optimal_rows))
          << "Choice alternatives disagree on " << cond->ToString()
          << "\noptimal: " << optimal->ToShortString()
          << "\nrandom:  " << random_plan->ToShortString();
    }
  }
}

// A random resolution can cost more, but never less, than ResolveChoices'
// pick — the cost module really is choosing the minimum over the space.
TEST_P(DifferentialTest, OptimalResolutionIsCostMinimal) {
  Rng rng(CaseSeed() + 3);
  DifferentialEnv env(CaseSeed() * 41 + 2);
  for (int trial = 0; trial < 5; ++trial) {
    RandomConditionOptions cond_options;
    cond_options.num_atoms = 2 + rng.NextIndex(3);
    const ConditionPtr cond = RandomCondition(env.domains, cond_options, &rng);
    const AttributeSet attrs = env.handle->schema().AllAttributes();

    Epg epg(env.handle.get());
    const PlanPtr space = epg.Generate(Canonicalize(cond), attrs);
    if (space == nullptr) continue;

    const CostModel& model = env.handle->cost_model();
    const double optimal_cost = model.PlanCost(*model.ResolveChoices(space));
    EXPECT_NEAR(optimal_cost, model.PlanCost(*space), 1e-6);  // min over space
    for (int pick = 0; pick < 3; ++pick) {
      const PlanPtr random_plan = model.ResolveChoicesRandom(space, &rng);
      ASSERT_NE(random_plan, nullptr);
      EXPECT_GE(model.PlanCost(*random_plan), optimal_cost - 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest, ::testing::Range(0, 20));

// `cond` with every constant drawn again from its attribute's sampled
// domain: the same attributes, operators and constant types, so the same
// shape (two atoms may now coincide, or stop coinciding).
ConditionPtr RedrawConstants(const ConditionPtr& cond,
                             const std::vector<AttributeDomain>& domains,
                             Rng* rng) {
  if (cond->is_atom()) {
    const AtomicCondition& atom = cond->atom();
    for (const AttributeDomain& domain : domains) {
      if (domain.name != atom.attribute || domain.sample_values.empty()) {
        continue;
      }
      Value value =
          domain.sample_values[rng->NextIndex(domain.sample_values.size())];
      if (value.type() != atom.constant.type()) return cond;
      if (atom.op == CompareOp::kContains) {
        const std::string& text = value.string_value();
        value = Value::String(text.substr(0, std::min<size_t>(3, text.size())));
      }
      return ConditionNode::Atom(atom.attribute, atom.op, std::move(value));
    }
    return cond;
  }
  if (!cond->is_connector()) return cond;
  std::vector<ConditionPtr> children;
  for (const ConditionPtr& child : cond->children()) {
    children.push_back(RedrawConstants(child, domains, rng));
  }
  return ConditionNode::Connector(cond->kind(), std::move(children));
}

class TemplateTest : public DifferentialTest {};

// Equivalence 3: one random (capability, shape) per parameter and 12
// constant draws of it, planned on one long-lived handle (the first draw
// builds the shape's template, later draws reuse it) and on a fresh handle
// each. Plans, cost bits and IPG counters must be equal, in safe and in
// paper mode, and on a source whose cost model charges mediator work
// (k3 > 0); paper-mode costs match GenModular's where the harness above
// asserts it, and safe-mode answers are the direct answer.
TEST_P(TemplateTest, WarmTemplatesPlanWhatFreshHandlesPlan) {
  Rng rng(CaseSeed() + 5);
  DifferentialEnv env(CaseSeed() * 43 + 3);
  // A shape this capability mix can plan (a throwaway handle probes it, so
  // the long-lived handle's first plan of the shape builds its template).
  ConditionPtr shape;
  AttributeSet attrs;
  for (int attempt = 0; attempt < 20; ++attempt) {
    RandomConditionOptions cond_options;
    cond_options.num_atoms = 2 + rng.NextIndex(3);
    shape = RandomCondition(env.domains, cond_options, &rng);
    attrs = AttributeSet();
    attrs.Add(static_cast<int>(rng.NextIndex(4)));
    attrs.Add(static_cast<int>(rng.NextIndex(4)));
    SourceHandle probe(env.description, env.table.get());
    if (GenCompactPlanner(&probe).Plan(shape, attrs).ok()) break;
  }

  GenCompactOptions safe;
  GenCompactOptions paper;
  paper.ipg.safe_combination = false;
  paper.max_cts = 512;
  constexpr double kMediatorK3 = 0.05;
  SourceHandle k3_handle(env.description, env.table.get(),
                         /*apply_commutativity_closure=*/true, kMediatorK3);
  const CostModel& model = env.handle->cost_model();
  for (int draw = 0; draw < 12; ++draw) {
    const ConditionPtr cond =
        draw == 0 ? shape : RedrawConstants(shape, env.domains, &rng);
    SCOPED_TRACE(cond->ToString());
    {
      GenCompactPlanner warm(&k3_handle);
      const Result<PlanPtr> warm_plan = warm.Plan(cond, attrs);
      SourceHandle fresh_handle(env.description, env.table.get(),
                                /*apply_commutativity_closure=*/true,
                                kMediatorK3);
      const Result<PlanPtr> fresh_plan =
          GenCompactPlanner(&fresh_handle).Plan(cond, attrs);
      ASSERT_EQ(warm_plan.ok(), fresh_plan.ok());
      if (warm_plan.ok()) {
        EXPECT_EQ((*warm_plan)->ToShortString(),
                  (*fresh_plan)->ToShortString());
        EXPECT_EQ(
            std::bit_cast<uint64_t>(k3_handle.cost_model().PlanCost(**warm_plan)),
            std::bit_cast<uint64_t>(
                k3_handle.cost_model().PlanCost(**fresh_plan)));
      }
    }
    SourceHandle fresh_handle(env.description, env.table.get());
    for (const GenCompactOptions& options : {safe, paper}) {
      GenCompactPlanner warm(env.handle.get(), options);
      const Result<PlanPtr> warm_plan = warm.Plan(cond, attrs);
      GenCompactPlanner fresh(&fresh_handle, options);
      const Result<PlanPtr> fresh_plan = fresh.Plan(cond, attrs);
      ASSERT_EQ(warm_plan.ok(), fresh_plan.ok());
      const IpgStats& a = warm.stats().ipg;
      const IpgStats& b = fresh.stats().ipg;
      EXPECT_EQ(a.calls, b.calls);
      EXPECT_EQ(a.mcsc_invocations, b.mcsc_invocations);
      EXPECT_EQ(a.max_subplans, b.max_subplans);
      EXPECT_EQ(a.total_subplans, b.total_subplans);
      EXPECT_EQ(a.cost_estimates, b.cost_estimates);
      EXPECT_EQ(a.incomplete, b.incomplete);
      EXPECT_EQ(warm.stats().num_cts, fresh.stats().num_cts);
      if (!warm_plan.ok()) continue;
      EXPECT_EQ((*warm_plan)->ToShortString(), (*fresh_plan)->ToShortString());
      EXPECT_EQ(std::bit_cast<uint64_t>(model.PlanCost(**warm_plan)),
                std::bit_cast<uint64_t>(model.PlanCost(**fresh_plan)));
      EXPECT_EQ(std::bit_cast<uint64_t>(warm.stats().best_cost),
                std::bit_cast<uint64_t>(fresh.stats().best_cost));
      ASSERT_TRUE(
          ValidatePlanFor(**warm_plan, attrs, env.handle->checker()).ok());

      if (options.ipg.safe_combination) {
        Executor executor(env.source.get());
        const Result<RowSet> rows = executor.Execute(**warm_plan);
        ASSERT_TRUE(rows.ok()) << rows.status().ToString();
        EXPECT_TRUE(SameRows(*rows, DirectAnswer(*env.table, *cond, attrs)))
            << (*warm_plan)->ToShortString();
        continue;
      }
      GenModularOptions gm_options;
      gm_options.rewrite.max_cts = 2048;
      GenModularPlanner genmodular(env.handle.get(), gm_options);
      const Result<PlanPtr> gm = genmodular.Plan(cond, attrs);
      ASSERT_TRUE(gm.ok());
      if (!genmodular.stats().rewrite_budget_exhausted &&
          !genmodular.stats().epg_incomplete &&
          !warm.stats().rewrite_budget_exhausted && !a.incomplete) {
        EXPECT_NEAR(model.PlanCost(**warm_plan), model.PlanCost(**gm), 1e-6)
            << "GC: " << (*warm_plan)->ToShortString()
            << "\nGM: " << (*gm)->ToShortString();
      }
    }
  }
  EXPECT_GT(env.handle->plan_templates()->hits(), 0u);
  EXPECT_GT(k3_handle.plan_templates()->hits(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TemplateTest, ::testing::Range(0, 20));

}  // namespace
}  // namespace gencompact
