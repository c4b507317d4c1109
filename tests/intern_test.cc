// Hash-consed condition identity (DESIGN.md "Identity & interning"):
//  - pool semantics: structurally equal trees are pointer-identical, nodes
//    die when the last reference drops, ids are never reused;
//  - parity: the interned pipeline plans and answers randomized queries
//    exactly like the ablation (interning disabled) pipeline — identical
//    feasibility, plan structure, cost, and rows, with DESIGN.md §5
//    invariants 1 (validator accepts) and 2 (exact answers) asserted inline
//    in both modes;
//  - a multi-threaded hammer: concurrent factories over overlapping
//    condition sets return pointer-identical roots, with node churn racing
//    the pool's unlink path (run under TSan/ASan in scripts/ci.sh).
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cost/cost_model.h"
#include "exec/executor.h"
#include "exec/source.h"
#include "expr/condition_eval.h"
#include "expr/condition_parser.h"
#include "expr/intern.h"
#include "plan/plan_printer.h"
#include "plan/plan_validator.h"
#include "planner/planner.h"
#include "planner/source_handle.h"
#include "ssdl/check.h"
#include "workload/random_capability.h"
#include "workload/random_condition.h"

namespace gencompact {
namespace {

// ---------------------------------------------------------------------------
// Pool semantics.

TEST(ConditionInternTest, StructurallyEqualParsesArePointerIdentical) {
  const Result<ConditionPtr> a = ParseCondition("a = 1 and (b = 2 or c = 3)");
  const Result<ConditionPtr> b = ParseCondition("a = 1 and (b = 2 or c = 3)");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->get(), b->get());  // the tentpole: identity IS equality
  EXPECT_EQ((*a)->id(), (*b)->id());
  EXPECT_EQ((*a)->fingerprint(), (*b)->fingerprint());

  const Result<ConditionPtr> c = ParseCondition("a = 1 and (b = 2 or c = 4)");
  ASSERT_TRUE(c.ok());
  EXPECT_NE(a->get(), c->get());
  EXPECT_NE((*a)->id(), (*c)->id());
}

TEST(ConditionInternTest, SubtreesAreSharedAcrossDistinctRoots) {
  const Result<ConditionPtr> a = ParseCondition("x = 1 and y = 2");
  const Result<ConditionPtr> b = ParseCondition("x = 1 and z = 3");
  ASSERT_TRUE(a.ok() && b.ok());
  // The "x = 1" leaf is one node, referenced by both roots.
  EXPECT_EQ((*a)->children()[0].get(), (*b)->children()[0].get());
}

TEST(ConditionInternTest, DeadNodesLeaveThePoolAndIdsNeverReused) {
  const ConditionInterner::Stats baseline = ConditionInterner::Global().stats();
  ConditionId first_id = 0;
  {
    const Result<ConditionPtr> cond = ParseCondition("zz = 42 and qq = 7");
    ASSERT_TRUE(cond.ok());
    first_id = (*cond)->id();
    EXPECT_GT(ConditionInterner::Global().stats().live_nodes,
              baseline.live_nodes);
  }
  // Last reference dropped: the nodes are gone from the pool...
  EXPECT_EQ(ConditionInterner::Global().stats().live_nodes,
            baseline.live_nodes);
  // ...and re-interning the same structure mints a fresh, larger id, so no
  // downstream id-keyed cache can alias the dead condition.
  const Result<ConditionPtr> again = ParseCondition("zz = 42 and qq = 7");
  ASSERT_TRUE(again.ok());
  EXPECT_GT((*again)->id(), first_id);
}

TEST(ConditionInternTest, DisabledModeBuildsFreshNodesWithEqualFingerprints) {
  ScopedInterningDisabled off;
  const Result<ConditionPtr> a = ParseCondition("a = 1 and b = 2");
  const Result<ConditionPtr> b = ParseCondition("a = 1 and b = 2");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a->get(), b->get());  // no consing
  EXPECT_NE((*a)->id(), (*b)->id());
  // Fingerprints are structure-determined in both modes, so ConditionSet
  // (rewrite closure, simplify idempotence) behaves identically.
  EXPECT_EQ((*a)->fingerprint(), (*b)->fingerprint());
  EXPECT_TRUE((*a)->StructurallyEquals(**b));

  ConditionSet set;
  EXPECT_TRUE(set.Insert(*a));
  EXPECT_FALSE(set.Insert(*b));
  EXPECT_EQ(set.size(), 1u);
}

// ---------------------------------------------------------------------------
// Parity: interned vs ablation pipeline over randomized workloads.

struct QueryOutcome {
  bool feasible = false;
  std::string plan_text;
  double cost = 0.0;
  std::optional<RowSet> rows;
};

class ConditionInternParityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConditionInternParityTest, PlansAndAnswersMatchAblation) {
  const uint64_t seed = GetParam();
  const Schema schema({{"s1", ValueType::kString},
                       {"s2", ValueType::kString},
                       {"n1", ValueType::kInt},
                       {"n2", ValueType::kInt}});
  Rng rng(seed * 31);
  const std::unique_ptr<Table> table =
      MakeRandomTable("src", schema, 300, 10, 40, &rng);
  RandomCapabilityOptions cap_options;
  cap_options.download_probability = 0.5;
  const SourceDescription description =
      RandomCapability("src", schema, cap_options, &rng);
  const std::vector<AttributeDomain> domains = ExtractDomains(*table, 5, &rng);
  const RowLayout full(schema.AllAttributes(), 4);

  // Queries as (text, projection) specs, so both phases rebuild the
  // condition through their own factory mode.
  struct QuerySpec {
    std::string text;
    AttributeSet attrs;
  };
  std::vector<QuerySpec> specs;
  for (int q = 0; q < 12; ++q) {
    RandomConditionOptions cond_options;
    cond_options.num_atoms = 1 + rng.NextIndex(8);
    const ConditionPtr cond = RandomCondition(domains, cond_options, &rng);
    QuerySpec spec;
    spec.text = cond->ToString();
    spec.attrs.Add(static_cast<int>(rng.NextIndex(4)));
    spec.attrs.Add(static_cast<int>(rng.NextIndex(4)));
    specs.push_back(std::move(spec));
  }

  // One full pipeline pass: fresh handle (fresh Checker memo), plan,
  // validate (invariant 1), execute, check exactness against direct
  // evaluation (invariant 2).
  const auto run_pipeline = [&]() -> std::vector<QueryOutcome> {
    std::vector<QueryOutcome> outcomes;
    SourceHandle handle(description, table.get());
    Source source(table.get(), &handle.description());
    const std::unique_ptr<PlannerStrategy> planner =
        MakePlanner(Strategy::kGenCompact, &handle);
    for (const QuerySpec& spec : specs) {
      const Result<ConditionPtr> cond = ParseCondition(spec.text);
      EXPECT_TRUE(cond.ok()) << spec.text;
      QueryOutcome outcome;
      const Result<PlanPtr> plan = planner->Plan(*cond, spec.attrs);
      if (!plan.ok()) {
        EXPECT_EQ(plan.status().code(), StatusCode::kNoFeasiblePlan);
        outcomes.push_back(std::move(outcome));
        continue;
      }
      outcome.feasible = true;
      // Invariant 1: every emitted plan passes the validator.
      EXPECT_TRUE(
          ValidatePlanFor(**plan, spec.attrs, handle.checker()).ok())
          << spec.text;
      outcome.plan_text = PrintPlan(**plan, schema, &handle.cost_model());
      outcome.cost = handle.cost_model().PlanCost(**plan);
      Executor executor(&source);
      Result<RowSet> rows = executor.Execute(**plan);
      EXPECT_TRUE(rows.ok()) << spec.text;
      if (rows.ok()) {
        // Invariant 2: exactly π_A(σ_C(R)).
        RowSet truth(RowLayout(spec.attrs, 4));
        for (const Row& row : table->rows()) {
          const Result<bool> match = EvalCondition(**cond, row, full, schema);
          EXPECT_TRUE(match.ok());
          if (match.ok() && *match) {
            truth.Insert(full.Project(row, truth.layout()));
          }
        }
        EXPECT_EQ(rows->size(), truth.size()) << spec.text;
        outcome.rows = std::move(rows).value();
      }
      outcomes.push_back(std::move(outcome));
    }
    return outcomes;
  };

  ASSERT_TRUE(ConditionInterner::enabled());
  const std::vector<QueryOutcome> interned = run_pipeline();
  std::vector<QueryOutcome> ablation;
  {
    ScopedInterningDisabled off;
    ablation = run_pipeline();
  }

  ASSERT_EQ(interned.size(), ablation.size());
  size_t feasible = 0;
  for (size_t i = 0; i < interned.size(); ++i) {
    SCOPED_TRACE(specs[i].text);
    ASSERT_EQ(interned[i].feasible, ablation[i].feasible);
    if (!interned[i].feasible) continue;
    ++feasible;
    // Identical plan structure and cost, bit for bit.
    EXPECT_EQ(interned[i].plan_text, ablation[i].plan_text);
    EXPECT_EQ(interned[i].cost, ablation[i].cost);
    ASSERT_TRUE(interned[i].rows.has_value() && ablation[i].rows.has_value());
    EXPECT_EQ(interned[i].rows->size(), ablation[i].rows->size());
    for (const Row& row : interned[i].rows->rows()) {
      EXPECT_TRUE(ablation[i].rows->Contains(row));
    }
  }
  EXPECT_GT(feasible, 0u) << "workload produced no feasible queries";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConditionInternParityTest,
                         ::testing::Values(1, 2, 3, 4));

// ---------------------------------------------------------------------------
// Ablation × the Check memo. The memo keys on condition shape, not identity,
// so a tree rebuilt with hash-consing off (fresh nodes, fresh ids) must hit
// the entry its interned twin filled, and get the family a fresh Earley run
// would.

TEST(ConditionInternShapeMemoTest, AblatedConditionsHitTheShapeMemo) {
  const Schema schema({{"s1", ValueType::kString},
                       {"s2", ValueType::kString},
                       {"n1", ValueType::kInt},
                       {"n2", ValueType::kInt}});
  Rng rng(4391);
  const std::unique_ptr<Table> table =
      MakeRandomTable("src", schema, 100, 8, 30, &rng);
  const SourceDescription description =
      RandomCapability("src", schema, RandomCapabilityOptions{}, &rng);
  SourceHandle handle(description, table.get());
  const std::vector<AttributeDomain> domains = ExtractDomains(*table, 5, &rng);
  const auto sorted = [](std::vector<AttributeSet> family) {
    std::sort(family.begin(), family.end());
    return family;
  };

  Checker checker(&handle.description());
  std::vector<std::string> texts;
  std::vector<std::vector<AttributeSet>> families;
  {
    ASSERT_TRUE(ConditionInterner::enabled());
    for (int i = 0; i < 10; ++i) {
      RandomConditionOptions cond_options;
      cond_options.num_atoms = 1 + rng.NextIndex(5);
      const ConditionPtr cond = RandomCondition(domains, cond_options, &rng);
      texts.push_back(cond->ToString());
      Checker reference(&handle.description());
      families.push_back(sorted(reference.Check(*cond)));
      EXPECT_EQ(sorted(checker.Check(*cond)), families.back());
    }
  }
  const size_t hits = checker.num_cache_hits();
  const size_t items = checker.total_earley_items();
  {
    ScopedInterningDisabled off;
    for (size_t i = 0; i < texts.size(); ++i) {
      SCOPED_TRACE(texts[i]);
      const Result<ConditionPtr> cond = ParseCondition(texts[i]);
      ASSERT_TRUE(cond.ok());
      EXPECT_EQ(sorted(checker.Check(**cond)), families[i]);
    }
  }
  EXPECT_EQ(checker.num_cache_hits(), hits + texts.size());
  EXPECT_EQ(checker.total_earley_items(), items);
}

// ---------------------------------------------------------------------------
// Concurrency hammer (run under TSan and ASan by scripts/ci.sh).

TEST(ConditionInternHammerTest, ThreadsInterningOverlappingSetsAgree) {
  // Overlapping specs with heavy shared substructure, so threads constantly
  // collide on the same pool shards.
  std::vector<std::string> specs;
  for (int i = 0; i < 24; ++i) {
    specs.push_back("a = " + std::to_string(i % 6) + " and (b = " +
                    std::to_string(i % 4) + " or c = " + std::to_string(i % 3) +
                    ") and d contains \"x" + std::to_string(i % 2) + "\"");
  }

  constexpr size_t kThreads = 8;
  constexpr size_t kRounds = 40;
  const ConditionInterner::Stats baseline = ConditionInterner::Global().stats();

  std::vector<std::vector<ConditionPtr>> held(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &specs, &held]() {
      for (size_t round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < specs.size(); ++i) {
          // Rotate per thread so different threads hit the same spec at
          // different times from different directions.
          const std::string& text = specs[(i + t * 3 + round) % specs.size()];
          Result<ConditionPtr> cond = ParseCondition(text);
          ASSERT_TRUE(cond.ok());
          // Churn: derive and immediately drop a fresh conjunction, racing
          // node destruction (the pool's unlink path) against interning.
          {
            const Result<ConditionPtr> extra =
                ParseCondition("(" + text + ") and e < " +
                               std::to_string(round % 7));
            ASSERT_TRUE(extra.ok());
          }
          if (round + 1 == kRounds) {
            held[t].push_back(std::move(cond).value());
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // Every thread resolved each spec to the exact same node.
  for (size_t t = 1; t < kThreads; ++t) {
    ASSERT_EQ(held[t].size(), held[0].size());
  }
  // held[t] stores specs in thread-rotated order; compare via sorted ids.
  const auto sorted_ptrs = [](const std::vector<ConditionPtr>& conds) {
    std::vector<const ConditionNode*> ptrs;
    ptrs.reserve(conds.size());
    for (const ConditionPtr& cond : conds) ptrs.push_back(cond.get());
    std::sort(ptrs.begin(), ptrs.end());
    return ptrs;
  };
  const std::vector<const ConditionNode*> reference = sorted_ptrs(held[0]);
  for (size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(sorted_ptrs(held[t]), reference);
  }

  // Dropping every reference empties the pool back to its baseline: the
  // weak-entry pool holds nothing alive (ASan leak check corroborates).
  held.clear();
  const ConditionInterner::Stats after = ConditionInterner::Global().stats();
  EXPECT_EQ(after.live_nodes, baseline.live_nodes);
  EXPECT_GT(after.hits, baseline.hits);
}

}  // namespace
}  // namespace gencompact
