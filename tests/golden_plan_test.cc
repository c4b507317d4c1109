// Golden plans: GenCompact's chosen plan, its cost and its run counters over
// a fixed corpus, compared line by line with tests/golden/gencompact_plans.txt.
//
// The corpus covers the paper's Examples 1.1 and 1.2, seeded random
// (capability, condition, attrs) triples of 2-4 atoms in safe and paper
// combination mode, the PR1-off / PR2-off / PR3-off ablations, and a source
// whose cost model charges mediator work (mediator_k3 > 0). A planner change
// that moves any plan, cost or counter shows up as a readable per-case diff.
//
// Regenerate the file (only for an intended plan change) by running this
// test with GENCOMPACT_UPDATE_GOLDEN=1 in the environment, e.g.
//   GENCOMPACT_UPDATE_GOLDEN=1 gencompact_tests --gtest_filter='Golden*'

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>

#include "planner/gen_compact.h"
#include "workload/datasets.h"
#include "workload/random_capability.h"
#include "workload/random_condition.h"

namespace gencompact {
namespace {

constexpr char kGoldenPath[] = GENCOMPACT_GOLDEN_DIR "/gencompact_plans.txt";

// One golden line: the plan (or "infeasible"), its cost under the source's
// model, and every GenCompactPlanner::RunStats / IpgStats counter.
std::string GoldenLine(GenCompactPlanner& planner, const SourceHandle& handle,
                       const ConditionPtr& cond, const AttributeSet& attrs) {
  const Result<PlanPtr> plan = planner.Plan(cond, attrs);
  const GenCompactPlanner::RunStats& stats = planner.stats();
  char counters[512];
  std::snprintf(
      counters, sizeof(counters),
      "cost=%.17g best_cost=%.17g cts=%zu budget=%d calls=%zu mcsc=%zu "
      "max_q=%zu subplans=%zu incomplete=%d",
      plan.ok() ? handle.cost_model().PlanCost(**plan) : 0.0, stats.best_cost,
      stats.num_cts, stats.rewrite_budget_exhausted ? 1 : 0, stats.ipg.calls,
      stats.ipg.mcsc_invocations, stats.ipg.max_subplans,
      stats.ipg.total_subplans, stats.ipg.incomplete ? 1 : 0);
  return (plan.ok() ? (*plan)->ToShortString() : std::string("infeasible")) +
         " | " + counters;
}

struct Variant {
  const char* name;
  bool safe;
  bool pr1;
  bool pr2;
  bool pr3;
};

constexpr Variant kModes[] = {
    {"safe", true, true, true, true},
    {"paper", false, true, true, true},
};
constexpr Variant kAblations[] = {
    {"pr1_off", true, false, true, true},
    {"pr2_off", true, true, false, true},
    {"pr3_off", true, true, true, false},
};

GenCompactOptions OptionsFor(const Variant& variant) {
  GenCompactOptions options;
  options.ipg.safe_combination = variant.safe;
  options.ipg.pr1 = variant.pr1;
  options.ipg.pr2 = variant.pr2;
  options.ipg.pr3 = variant.pr3;
  return options;
}

// Appends "<case> | <golden line>" to `out` for each variant.
template <size_t N>
void AddCases(const std::string& case_name, SourceHandle& handle,
              const ConditionPtr& cond, const AttributeSet& attrs,
              const Variant (&variants)[N],
              std::vector<std::pair<std::string, std::string>>* out) {
  for (const Variant& variant : variants) {
    GenCompactPlanner planner(&handle, OptionsFor(variant));
    out->emplace_back(case_name + "/" + variant.name,
                      GoldenLine(planner, handle, cond, attrs));
  }
}

void AddExample(const std::string& name, Dataset dataset, double mediator_k3,
                std::vector<std::pair<std::string, std::string>>* out) {
  SourceHandle handle(dataset.description, dataset.table.get(),
                      /*apply_commutativity_closure=*/true, mediator_k3);
  const Result<AttributeSet> attrs =
      handle.schema().MakeSet(dataset.example_attrs);
  ASSERT_TRUE(attrs.ok());
  AddCases(name, handle, dataset.example_condition, *attrs, kModes, out);
  if (mediator_k3 == 0.0) {
    AddCases(name, handle, dataset.example_condition, *attrs, kAblations, out);
  }
}

// The differential harness's schema and source shape, seeded per case.
void AddRandom(uint64_t seed, double mediator_k3, bool ablations,
               std::vector<std::pair<std::string, std::string>>* out) {
  Rng rng(seed);
  const Schema schema({{"s1", ValueType::kString},
                       {"s2", ValueType::kString},
                       {"n1", ValueType::kInt},
                       {"n2", ValueType::kInt}});
  const std::unique_ptr<Table> table =
      MakeRandomTable("src", schema, /*rows=*/200, /*string_pool=*/10,
                      /*value_range=*/40, &rng);
  const SourceDescription description =
      RandomCapability("src", schema, RandomCapabilityOptions{}, &rng);
  SourceHandle handle(description, table.get(),
                      /*apply_commutativity_closure=*/true, mediator_k3);
  const std::vector<AttributeDomain> domains =
      ExtractDomains(*table, /*max_samples=*/6, &rng);
  RandomConditionOptions cond_options;
  cond_options.num_atoms = 2 + rng.NextIndex(3);
  const ConditionPtr cond = RandomCondition(domains, cond_options, &rng);
  AttributeSet attrs;
  attrs.Add(static_cast<int>(rng.NextIndex(4)));
  attrs.Add(static_cast<int>(rng.NextIndex(4)));

  const std::string name = (mediator_k3 > 0 ? "k3_random" : "random") +
                           std::to_string(seed);
  AddCases(name, handle, cond, attrs, kModes, out);
  if (ablations) AddCases(name, handle, cond, attrs, kAblations, out);
}

std::vector<std::pair<std::string, std::string>> Corpus() {
  std::vector<std::pair<std::string, std::string>> lines;
  AddExample("example1.1", MakeBookstore(4000, /*seed=*/42), 0.0, &lines);
  AddExample("example1.2", MakeCarSource(4000, /*seed=*/7), 0.0, &lines);
  AddExample("k3_example1.2", MakeCarSource(4000, /*seed=*/7), 0.05, &lines);
  for (uint64_t seed = 1; seed <= 120; ++seed) {
    AddRandom(seed, 0.0, /*ablations=*/seed <= 30, &lines);
  }
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    AddRandom(seed, 0.05, /*ablations=*/false, &lines);
  }
  return lines;
}

TEST(GoldenPlanTest, GenCompactPlansMatchTheGoldenFile) {
  const std::vector<std::pair<std::string, std::string>> corpus = Corpus();

  if (std::getenv("GENCOMPACT_UPDATE_GOLDEN") != nullptr) {
    std::ofstream file(kGoldenPath);
    ASSERT_TRUE(file.good()) << "cannot write " << kGoldenPath;
    for (const auto& [name, line] : corpus) {
      file << name << " | " << line << "\n";
    }
  }

  std::ifstream file(kGoldenPath);
  ASSERT_TRUE(file.good()) << "cannot read " << kGoldenPath;
  std::map<std::string, std::string> golden;
  std::string text;
  while (std::getline(file, text)) {
    const size_t sep = text.find(" | ");
    ASSERT_NE(sep, std::string::npos) << "malformed golden line: " << text;
    golden.emplace(text.substr(0, sep), text.substr(sep + 3));
  }

  EXPECT_EQ(golden.size(), corpus.size()) << "golden file and corpus differ "
                                             "in their number of cases";
  for (const auto& [name, line] : corpus) {
    const auto it = golden.find(name);
    if (it == golden.end()) {
      ADD_FAILURE() << "case " << name << " is missing from the golden file";
      continue;
    }
    EXPECT_EQ(it->second, line) << "case " << name << "\n  golden: "
                                << it->second << "\n  actual: " << line;
  }
}

}  // namespace
}  // namespace gencompact
