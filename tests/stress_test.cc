// Stress & fuzz coverage: malformed inputs never crash and always produce
// clean Status errors; larger randomized sweeps exercise the full pipeline.

#include <gtest/gtest.h>

#include <set>

#include "exec/executor.h"
#include "expr/condition_eval.h"
#include "expr/condition_parser.h"
#include "mediator/federation.h"
#include "mediator/mediator.h"
#include "mediator/sql_parser.h"
#include "plan/plan_validator.h"
#include "planner/epg.h"
#include "planner/gen_compact.h"
#include "ssdl/ssdl_parser.h"
#include "workload/random_capability.h"
#include "workload/random_condition.h"

namespace gencompact {
namespace {

// ---------------------------------------------------------------------------
// Parser fuzzing: random byte soup and near-miss inputs.

class ParserFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParserFuzzTest, ConditionParserNeverCrashes) {
  Rng rng(GetParam());
  const std::string alphabet =
      "abc ()=<>!\"0123456789_.,{}&|truefalseandorcontains$";
  for (int trial = 0; trial < 400; ++trial) {
    std::string input;
    const size_t len = rng.NextIndex(40);
    for (size_t i = 0; i < len; ++i) {
      input += alphabet[rng.NextIndex(alphabet.size())];
    }
    const Result<ConditionPtr> cond = ParseCondition(input);
    if (cond.ok()) {
      // Whatever parsed must round-trip through its own ToString.
      const Result<ConditionPtr> again = ParseCondition((*cond)->ToString());
      ASSERT_TRUE(again.ok()) << input << " -> " << (*cond)->ToString();
      EXPECT_TRUE((*cond)->StructurallyEquals(**again));
    }
  }
}

TEST_P(ParserFuzzTest, SsdlParserNeverCrashes) {
  Rng rng(GetParam() + 1);
  const std::string alphabet =
      "abcxyz ()=<>{}:;|->$\"\n0123456789_sourcerulexport,";
  for (int trial = 0; trial < 300; ++trial) {
    std::string input = "source R(a: string) {";
    const size_t len = rng.NextIndex(60);
    for (size_t i = 0; i < len; ++i) {
      input += alphabet[rng.NextIndex(alphabet.size())];
    }
    input += "}";
    const Result<SourceDescription> description = ParseSsdl(input);
    // Either a clean parse or a clean error; never a crash.
    if (description.ok()) {
      EXPECT_FALSE(description->condition_nonterminals().empty());
    }
  }
}

TEST_P(ParserFuzzTest, SqlParserNeverCrashes) {
  Rng rng(GetParam() + 2);
  const std::string alphabet = "abc .,*=<>\"selectfromwherejoinon0123456789";
  for (int trial = 0; trial < 400; ++trial) {
    std::string input;
    const size_t len = rng.NextIndex(60);
    for (size_t i = 0; i < len; ++i) {
      input += alphabet[rng.NextIndex(alphabet.size())];
    }
    (void)ParseSql(input);
    (void)ParseFederatedSql(input);
    (void)IsJoinQuery(input);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzzTest, ::testing::Values(1, 2, 3));

// ---------------------------------------------------------------------------
// Whole-pipeline sweep: Section 2's wrapper (a one-source Mediator) over
// random workloads, exactness against pi_A sigma_C R enforced.

TEST(StressTest, WrapperExactOverManyWorkloads) {
  size_t answered = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 31);
    const Schema schema({{"s1", ValueType::kString},
                         {"s2", ValueType::kString},
                         {"n1", ValueType::kInt},
                         {"n2", ValueType::kInt}});
    std::unique_ptr<Table> owned =
        MakeRandomTable("src", schema, 400, 10, 40, &rng);
    const Table* table = owned.get();  // the mediator's catalog owns it
    RandomCapabilityOptions cap_options;
    cap_options.download_probability = 0.3;
    Mediator wrapper;
    ASSERT_TRUE(wrapper
                    .RegisterSource(
                        RandomCapability("src", schema, cap_options, &rng),
                        std::move(owned))
                    .ok());
    const std::vector<AttributeDomain> domains = ExtractDomains(*table, 5, &rng);
    const RowLayout full(schema.AllAttributes(), 4);

    for (int q = 0; q < 15; ++q) {
      RandomConditionOptions cond_options;
      cond_options.num_atoms = 1 + rng.NextIndex(5);
      const ConditionPtr cond = RandomCondition(domains, cond_options, &rng);
      AttributeSet attrs;
      attrs.Add(static_cast<int>(rng.NextIndex(4)));
      attrs.Add(static_cast<int>(rng.NextIndex(4)));
      std::vector<std::string> names;
      for (const int index : attrs.Indices()) {
        names.push_back(schema.attribute(index).name);
      }
      const Result<Mediator::QueryResult> result =
          wrapper.QueryCondition("src", cond, names, Strategy::kGenCompact);
      if (!result.ok()) {
        EXPECT_EQ(result.status().code(), StatusCode::kNoFeasiblePlan);
        continue;
      }
      const RowSet& rows = result->rows;
      ++answered;
      // Exactness against direct evaluation.
      RowSet truth(RowLayout(attrs, 4));
      for (const Row& row : table->rows()) {
        const Result<bool> match = EvalCondition(*cond, row, full, schema);
        ASSERT_TRUE(match.ok());
        if (*match) truth.Insert(full.Project(row, truth.layout()));
      }
      ASSERT_EQ(rows.size(), truth.size()) << cond->ToString();
      for (const Row& row : truth.rows()) {
        ASSERT_TRUE(rows.Contains(row)) << cond->ToString();
      }
    }
  }
  EXPECT_GT(answered, 10u);
}

// ---------------------------------------------------------------------------
// Join sweep: random two-source joins, each edge method forced in turn, vs a
// nested-loop ground truth.

TEST(StressTest, JoinMatchesNestedLoopGroundTruth) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed * 101);
    const Schema left_schema({{"k", ValueType::kString},
                              {"x", ValueType::kInt}});
    const Schema right_schema({{"k", ValueType::kString},
                               {"y", ValueType::kInt}});
    Catalog catalog;
    {
      RandomCapabilityOptions cap;
      cap.download_probability = 1.0;  // both methods always feasible
      ASSERT_TRUE(catalog
                      .Register(RandomCapability("L", left_schema, cap, &rng),
                                MakeRandomTable("L", left_schema, 120, 6, 20,
                                                &rng))
                      .ok());
      ASSERT_TRUE(catalog
                      .Register(RandomCapability("Rt", right_schema, cap, &rng),
                                MakeRandomTable("Rt", right_schema, 90, 6, 20,
                                                &rng))
                      .ok());
    }
    CatalogEntry* left = *catalog.Find("L");
    CatalogEntry* right = *catalog.Find("Rt");

    FederatedQuery query;
    query.sources = {"L", "Rt"};
    query.keys = {{"L.k", "Rt.k"}};
    const int64_t bound = rng.NextInt(5, 15);
    const Result<ConditionPtr> cond =
        ParseCondition("L.x < " + std::to_string(bound));
    ASSERT_TRUE(cond.ok());
    query.condition = *cond;
    query.select = {"L.k", "L.x", "Rt.y"};

    // Ground truth by nested loops.
    std::set<std::string> truth;
    for (const Row& lrow : left->table().rows()) {
      if (!(lrow.value(1) < Value::Int(bound))) continue;
      for (const Row& rrow : right->table().rows()) {
        if (!(lrow.value(0) == rrow.value(0))) continue;
        truth.insert(lrow.value(0).ToString() + "|" + lrow.value(1).ToString() +
                     "|" + rrow.value(1).ToString());
      }
    }

    for (const EdgeMethod method :
         {EdgeMethod::kIndependent, EdgeMethod::kBind}) {
      const char* name =
          method == EdgeMethod::kBind ? "bind-join" : "independent";
      FederationOptions options;
      options.force_method = method;
      options.bind_batch_size = 1 + rng.NextIndex(5);
      FederationProcessor processor({left, right}, options);
      const Result<RowSet> rows = processor.Execute(query);
      if (!rows.ok()) {
        // The random right capability may not accept the bound value-list
        // shape; independent evaluation must always work (downloads are
        // enabled).
        ASSERT_EQ(method, EdgeMethod::kBind) << rows.status().ToString();
        ASSERT_EQ(rows.status().code(), StatusCode::kNoFeasiblePlan);
        continue;
      }
      std::set<std::string> answer;
      for (const Row& row : rows->rows()) {
        answer.insert(row.value(0).ToString() + "|" + row.value(1).ToString() +
                      "|" + row.value(2).ToString());
      }
      ASSERT_EQ(rows->size(), truth.size()) << name;
      ASSERT_EQ(answer, truth) << name;
    }
  }
}

// ---------------------------------------------------------------------------
// EPG Choice spaces stay countable and consistent.

TEST(StressTest, EpgChoiceSpaceCounting) {
  const Result<SourceDescription> description = ParseSsdl(R"(
    source R(a: int, b: int, c: int) {
      cost 5.0 1.0;
      rule atom -> a = $int | b = $int | c = $int;
      rule f -> atom | atom and atom | atom and atom and atom;
      rule dl -> true;
      export f : {a, b, c};
      export dl : {a, b, c};
    })");
  ASSERT_TRUE(description.ok());
  Table table("R", description->schema());
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(table
                    .AppendValues({Value::Int(i % 2), Value::Int(i % 3),
                                   Value::Int(i % 4)})
                    .ok());
  }
  SourceHandle handle(*description, &table);
  Epg epg(&handle);
  AttributeSet attrs;
  attrs.Add(0);
  const Result<ConditionPtr> cond = ParseCondition("a = 1 and b = 2 and c = 3");
  ASSERT_TRUE(cond.ok());
  const PlanPtr space = epg.Generate(*cond, attrs);
  ASSERT_NE(space, nullptr);
  const size_t alternatives = space->CountAlternatives();
  // Pure plan + download + many decompositions: a genuine space, not one
  // plan.
  EXPECT_GT(alternatives, 10u);
  EXPECT_LT(alternatives, 1000000u);

  // Resolving yields one of them, feasible and at least as cheap as any
  // other sampled alternative.
  const PlanPtr resolved = handle.cost_model().ResolveChoices(space);
  EXPECT_TRUE(resolved->IsResolved());
  EXPECT_EQ(resolved->CountAlternatives(), 1u);
  EXPECT_TRUE(ValidatePlan(*resolved, handle.checker()).ok());
}

}  // namespace
}  // namespace gencompact
