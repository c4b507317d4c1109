// E6 ("Fig 4"): supportability checking (Check / SSDL parsing) performance.
//
// Section 6.1's claim: "the parser still runs in time linear in the size of
// the condition expression, irrespective of the number of CFG rules in the
// source description". We benchmark Check over growing condition sizes and
// growing grammars (the commutativity closure multiplies rule counts), and
// report Earley items per token as the linearity witness.

// E14 rides in the same binary: a web-form workload for the shape-keyed
// Check memo and GenCompact's plan templates. A Zipf-distributed stream of
// recurring query shapes, every draw with constants no earlier draw used,
// is planned cold (a fresh SourceHandle, so an empty memo and no template,
// per draw) and warm (one handle for the whole stream: a recurring shape
// hits the memo and reuses its template whatever its constants). A second
// leg plans the paper's Examples 1.2 and 1.1 with fresh constants per
// draw, cold (a fresh handle per draw: Check and the template build) and
// warm (one handle: every timed draw reuses the template). The binary
// writes BENCH_checkmemo.json and exits nonzero unless warm is at least 2x
// faster than cold on the stream and at least 20x on each example.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "expr/condition.h"
#include "expr/condition_parser.h"
#include "planner/gen_compact.h"
#include "planner/planner.h"
#include "planner/source_handle.h"
#include "ssdl/capability_builder.h"
#include "ssdl/check.h"
#include "ssdl/closure.h"
#include "storage/table.h"
#include "workload/datasets.h"

namespace gencompact {
namespace {

Schema BenchSchema() {
  return Schema({{"a", ValueType::kString},
                 {"b", ValueType::kString},
                 {"n", ValueType::kInt}});
}

SourceDescription FullBooleanDescription() {
  const Schema schema = BenchSchema();
  CapabilityBuilder builder("src", schema);
  const Status status = builder.AddFullBoolean(
      "all",
      {{"a", {CompareOp::kEq}, false, false},
       {"b", {CompareOp::kEq}, false, false},
       {"n", {CompareOp::kEq, CompareOp::kLt, CompareOp::kGe}, false, false}},
      {"a", "b", "n"});
  (void)status;
  return builder.Build();
}

// Alternating ∧/∨ condition with `atoms` leaves.
ConditionPtr MakeCondition(size_t atoms) {
  std::vector<ConditionPtr> leaves;
  for (size_t i = 0; i < atoms; ++i) {
    leaves.push_back(ConditionNode::Atom(
        i % 3 == 0 ? "a" : (i % 3 == 1 ? "b" : "n"), CompareOp::kEq,
        i % 3 == 2 ? Value::Int(static_cast<int64_t>(i))
                   : Value::String("v" + std::to_string(i))));
  }
  // Pair up alternately to build a balanced alternating tree.
  bool use_and = true;
  while (leaves.size() > 1) {
    std::vector<ConditionPtr> next;
    for (size_t i = 0; i + 1 < leaves.size(); i += 2) {
      next.push_back(use_and
                         ? ConditionNode::And({leaves[i], leaves[i + 1]})
                         : ConditionNode::Or({leaves[i], leaves[i + 1]}));
    }
    if (leaves.size() % 2 == 1) next.push_back(leaves.back());
    leaves = std::move(next);
    use_and = !use_and;
  }
  return leaves.front();
}

void BM_CheckByConditionSize(benchmark::State& state) {
  const SourceDescription description = FullBooleanDescription();
  const ConditionPtr cond = MakeCondition(static_cast<size_t>(state.range(0)));
  const size_t tokens = TokenizeCondition(*cond).size();
  size_t items = 0;
  for (auto _ : state) {
    // Fresh checker each round: we measure parsing, not memoization.
    Checker checker(&description);
    benchmark::DoNotOptimize(checker.Check(*cond));
    items = checker.total_earley_items();
  }
  state.counters["tokens"] = static_cast<double>(tokens);
  state.counters["items_per_token"] =
      static_cast<double>(items) / static_cast<double>(tokens);
}
BENCHMARK(BM_CheckByConditionSize)
    ->RangeMultiplier(2)
    ->Range(2, 64)
    ->Unit(benchmark::kMicrosecond);

void BM_CheckByGrammarSize(benchmark::State& state) {
  // Conjunctive-form description whose closure multiplies the rule count:
  // `segments` slots -> up to segments! permuted rules.
  const size_t segments = static_cast<size_t>(state.range(0));
  const Schema schema({{"a0", ValueType::kInt},
                       {"a1", ValueType::kInt},
                       {"a2", ValueType::kInt},
                       {"a3", ValueType::kInt},
                       {"a4", ValueType::kInt},
                       {"a5", ValueType::kInt}});
  CapabilityBuilder builder("src", schema);
  std::vector<CapabilityBuilder::Slot> slots;
  std::vector<std::string> names;
  for (size_t i = 0; i < segments; ++i) {
    slots.push_back({"a" + std::to_string(i), {CompareOp::kEq}, false, false});
    names.push_back("a" + std::to_string(i));
  }
  const Status status = builder.AddConjunctiveForm("f", slots, names);
  (void)status;
  const SourceDescription closed = CommutativityClosure(builder.Build());

  // The probe condition: the slots in reverse order (needs the closure).
  std::vector<ConditionPtr> atoms;
  for (size_t i = segments; i-- > 0;) {
    atoms.push_back(ConditionNode::Atom("a" + std::to_string(i),
                                        CompareOp::kEq, Value::Int(1)));
  }
  const ConditionPtr cond = atoms.size() == 1
                                ? atoms.front()
                                : ConditionNode::And(std::move(atoms));

  for (auto _ : state) {
    Checker checker(&closed);
    benchmark::DoNotOptimize(checker.Check(*cond));
  }
  state.counters["grammar_rules"] =
      static_cast<double>(closed.grammar().rules().size());
}
BENCHMARK(BM_CheckByGrammarSize)->DenseRange(1, 6)->Unit(benchmark::kMicrosecond);

void BM_CheckWarm(benchmark::State& state) {
  const SourceDescription description = FullBooleanDescription();
  const ConditionPtr cond = MakeCondition(16);
  Checker checker(&description);
  checker.Check(*cond);  // warm
  for (auto _ : state) {
    benchmark::DoNotOptimize(checker.Check(*cond));
  }
}
BENCHMARK(BM_CheckWarm)->Unit(benchmark::kNanosecond);

}  // namespace

// ---------------------------------------------------------------------------
// E14: cold vs warm planning over recurring shapes with fresh constants.

namespace bench_memo {
namespace {

constexpr size_t kSegments = 6;       // closure: 6! = 720 permuted rules
constexpr size_t kDistinctShapes = 64;
constexpr size_t kDraws = 600;
constexpr double kZipfS = 1.1;

uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

Schema MemoSchema() {
  std::vector<AttributeDef> attrs;
  for (size_t i = 0; i < kSegments; ++i) {
    attrs.push_back({"a" + std::to_string(i), ValueType::kInt});
  }
  return Schema(attrs);
}

// Conjunctive-form description whose commutativity closure makes Check the
// dominant planning cost — the regime the memo targets.
SourceDescription ClosedDescription() {
  const Schema schema = MemoSchema();
  CapabilityBuilder builder("src", schema);
  std::vector<CapabilityBuilder::Slot> slots;
  std::vector<std::string> names;
  for (size_t i = 0; i < kSegments; ++i) {
    slots.push_back({"a" + std::to_string(i), {CompareOp::kEq}, false, false});
    names.push_back("a" + std::to_string(i));
  }
  const Status status = builder.AddConjunctiveForm("f", slots, names);
  (void)status;
  return CommutativityClosure(builder.Build());
}

// Distinct shapes: every shape binds all segments, in one of 64 distinct
// atom orders (each supportable only through the closure).
std::vector<std::vector<size_t>> ShapeOrders() {
  std::vector<size_t> order(kSegments);
  for (size_t i = 0; i < kSegments; ++i) order[i] = i;
  std::vector<std::vector<size_t>> orders;
  while (orders.size() < kDistinctShapes) {
    orders.push_back(order);
    for (int step = 0; step < 11; ++step) {  // spread over the 720 orders
      std::next_permutation(order.begin(), order.end());
    }
  }
  return orders;
}

// The query text of draw `draw` of shape `order`: constants unique to the
// draw, so no two draws share a condition.
std::string DrawText(const std::vector<size_t>& order, size_t draw) {
  std::string text;
  for (size_t attr : order) {
    if (!text.empty()) text += " and ";
    text += "a" + std::to_string(attr) + " = " +
            std::to_string(1000 + draw * kSegments + attr);
  }
  return text;
}

// Zipf(s) draw sequence over the shape ranks, deterministic by seed.
std::vector<size_t> ZipfDraws() {
  std::vector<double> cdf(kDistinctShapes);
  double total = 0.0;
  for (size_t rank = 0; rank < kDistinctShapes; ++rank) {
    total += 1.0 / std::pow(static_cast<double>(rank + 1), kZipfS);
    cdf[rank] = total;
  }
  uint64_t rng = 20260806ull;
  std::vector<size_t> draws;
  draws.reserve(kDraws);
  for (size_t i = 0; i < kDraws; ++i) {
    const double u =
        total * (static_cast<double>(SplitMix(&rng) >> 11) * 0x1p-53);
    const size_t pick = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    draws.push_back(pick < kDistinctShapes ? pick : kDistinctShapes - 1);
  }
  return draws;
}

struct MemoRun {
  const char* name = "";
  bool handle_per_draw = false;
  double seconds = 0.0;  ///< planning only; handle construction excluded
  size_t earley_items = 0;
  size_t plans_ok = 0;
  size_t memo_shapes = 0;  ///< entries in the last handle's memo
  size_t template_builds = 0;
  size_t template_hits = 0;
};

void CountTemplates(SourceHandle& handle, size_t* builds, size_t* hits) {
  *builds += handle.plan_templates()->builds();
  *hits += handle.plan_templates()->hits();
}

void RunConfig(const SourceDescription& description, const Table& table,
               const std::vector<std::vector<size_t>>& orders,
               const std::vector<size_t>& draws, MemoRun* run) {
  AttributeSet attrs;
  attrs.Add(0);
  attrs.Add(1);
  std::unique_ptr<SourceHandle> handle;
  std::chrono::steady_clock::duration planning{};
  for (size_t i = 0; i < draws.size(); ++i) {
    if (handle == nullptr || run->handle_per_draw) {
      if (handle != nullptr) {
        run->earley_items += handle->checker()->total_earley_items();
        CountTemplates(*handle, &run->template_builds, &run->template_hits);
      }
      handle = std::make_unique<SourceHandle>(
          description, &table, /*apply_commutativity_closure=*/false);
    }
    const auto start = std::chrono::steady_clock::now();
    const Result<ConditionPtr> cond =
        ParseCondition(DrawText(orders[draws[i]], i));
    if (cond.ok() && MakePlanner(Strategy::kGenCompact, handle.get())
                         ->Plan(*cond, attrs)
                         .ok()) {
      ++run->plans_ok;
    }
    planning += std::chrono::steady_clock::now() - start;
  }
  run->earley_items += handle->checker()->total_earley_items();
  CountTemplates(*handle, &run->template_builds, &run->template_hits);
  run->memo_shapes = handle->checker()->memo_size();
  run->seconds = std::chrono::duration<double>(planning).count();
}

double PerDraw(double total) { return total / static_cast<double>(kDraws); }

// The form leg: one of the paper's example queries, drawn with fresh
// constants.
struct FormRun {
  const char* name = "";
  size_t draws = 0;
  double cold_seconds = 0.0;  ///< a fresh handle per draw (not timed)
  double warm_seconds = 0.0;  ///< one handle, template built before timing
  size_t plans_ok = 0;
  size_t warm_template_builds = 0;
  size_t warm_template_hits = 0;
  size_t template_bytes = 0;  ///< the warm handle's templates
  double speedup() const {
    return warm_seconds > 0.0 ? cold_seconds / warm_seconds : 0.0;
  }
};

constexpr size_t kFormDraws = 40;
constexpr double kFormGate = 20.0;

// Example 1.2 with fresh constants: a style, two sizes, two makes, two
// price bounds.
std::string CarDraw(size_t draw, uint64_t* rng) {
  static const char* const kMakes[] = {"Toyota", "BMW",  "Honda", "Ford",
                                       "Volvo",  "Mazda", "Audi", "Fiat"};
  static const char* const kStyles[] = {"sedan", "coupe", "suv", "wagon"};
  static const char* const kSizes[] = {"compact", "midsize", "fullsize"};
  const size_t size1 = SplitMix(rng) % 3;
  const size_t size2 = (size1 + 1 + SplitMix(rng) % 2) % 3;
  const size_t make1 = SplitMix(rng) % 8;
  const size_t make2 = (make1 + 1 + SplitMix(rng) % 7) % 8;
  // Distinct price bounds per draw, so no two draws share a condition.
  const int64_t price1 = 12000 + static_cast<int64_t>(draw) * 8;
  const int64_t price2 = 40000 + static_cast<int64_t>(draw) * 8 + 4;
  return std::string("style = \"") + kStyles[SplitMix(rng) % 4] +
         "\" and (size = \"" + kSizes[size1] + "\" or size = \"" +
         kSizes[size2] + "\") and ((make = \"" + kMakes[make1] +
         "\" and price <= " + std::to_string(price1) + ") or (make = \"" +
         kMakes[make2] + "\" and price <= " + std::to_string(price2) + "))";
}

// Example 1.1 with fresh constants: two of the bookstore's synthetic
// authors (a pair no other draw uses) and a title keyword.
std::string BookDraw(size_t draw, uint64_t* rng) {
  static const char* const kFirst[] = {"John",  "Mary",  "Anna", "Peter",
                                       "Laura", "Henry", "Clara", "Paul"};
  static const char* const kLast[] = {"Smith", "Miller", "Garcia", "Chen",
                                      "Novak", "Rossi",  "Dubois", "Mori"};
  static const char* const kWords[] = {"dreams", "history", "life", "mind"};
  const auto author = [](size_t rank) {
    return std::string(kFirst[rank % 8]) + " " + kLast[(rank / 8) % 8] + " " +
           std::to_string(rank);
  };
  return "(author = \"" + author(2 * draw) + "\" or author = \"" +
         author(2 * draw + 1) + "\") and title contains \"" +
         kWords[SplitMix(rng) % 4] + "\"";
}

void RunForm(const Dataset& dataset, std::string (*make_draw)(size_t,
                                                               uint64_t*),
             FormRun* run) {
  const Result<AttributeSet> attrs =
      dataset.description.schema().MakeSet(dataset.example_attrs);
  if (!attrs.ok()) return;
  uint64_t rng = 20261019ull;
  std::vector<ConditionPtr> conditions;
  for (size_t i = 0; i <= run->draws; ++i) {
    const Result<ConditionPtr> cond = ParseCondition(make_draw(i, &rng));
    if (cond.ok()) conditions.push_back(*cond);
  }
  if (conditions.size() != run->draws + 1) return;
  using Clock = std::chrono::steady_clock;
  std::chrono::steady_clock::duration cold{};
  std::chrono::steady_clock::duration warm{};
  // Cold: Check and the template build on a fresh handle per draw.
  for (size_t i = 1; i <= run->draws; ++i) {
    SourceHandle handle(dataset.description, dataset.table.get());
    const auto start = Clock::now();
    const bool ok = GenCompactPlanner(&handle).Plan(conditions[i], *attrs).ok();
    cold += Clock::now() - start;
    run->plans_ok += ok ? 1 : 0;
  }
  // Warm: draw 0 builds the template untimed; every timed draw reuses it.
  SourceHandle handle(dataset.description, dataset.table.get());
  (void)GenCompactPlanner(&handle).Plan(conditions[0], *attrs);
  for (size_t i = 1; i <= run->draws; ++i) {
    const auto start = Clock::now();
    const bool ok = GenCompactPlanner(&handle).Plan(conditions[i], *attrs).ok();
    warm += Clock::now() - start;
    run->plans_ok += ok ? 1 : 0;
  }
  CountTemplates(handle, &run->warm_template_builds, &run->warm_template_hits);
  run->template_bytes = handle.plan_templates()->memory_bytes();
  run->cold_seconds = std::chrono::duration<double>(cold).count();
  run->warm_seconds = std::chrono::duration<double>(warm).count();
}

void WriteJson(const std::vector<MemoRun>& runs,
               const std::vector<FormRun>& forms, size_t grammar_rules,
               double warm_speedup, const char* path) {
  std::FILE* f = bench::OpenBenchJson(path, "check_memo");
  if (f == nullptr) return;
  std::fprintf(f, "  \"distinct_shapes\": %zu,\n", kDistinctShapes);
  std::fprintf(f, "  \"draws\": %zu,\n", kDraws);
  std::fprintf(f, "  \"zipf_s\": %.2f,\n", kZipfS);
  std::fprintf(f, "  \"constants\": \"fresh per draw\",\n");
  std::fprintf(f, "  \"grammar_rules\": %zu,\n", grammar_rules);
  std::fprintf(f, "  \"configs\": [\n");
  for (size_t i = 0; i < runs.size(); ++i) {
    const MemoRun& r = runs[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"seconds\": %.4f, "
                 "\"mean_us_per_draw\": %.1f, "
                 "\"earley_items_per_draw\": %.1f, \"plans_ok\": %zu, "
                 "\"template_builds\": %zu, \"template_hits\": %zu}%s\n",
                 r.name, r.seconds, PerDraw(r.seconds * 1e6),
                 PerDraw(static_cast<double>(r.earley_items)), r.plans_ok,
                 r.template_builds, r.template_hits,
                 i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"warm_memo_shapes\": %zu,\n", runs[1].memo_shapes);
  std::fprintf(f, "  \"warm_speedup\": %.2f,\n", warm_speedup);
  std::fprintf(f, "  \"forms\": [\n");
  for (size_t i = 0; i < forms.size(); ++i) {
    const FormRun& r = forms[i];
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"draws\": %zu, \"cold_us_per_draw\": %.1f, "
        "\"warm_us_per_draw\": %.1f, \"speedup\": %.1f, "
        "\"warm_template_builds\": %zu, \"warm_template_hits\": %zu, "
        "\"template_bytes\": %zu}%s\n",
        r.name, r.draws, r.cold_seconds * 1e6 / static_cast<double>(r.draws),
        r.warm_seconds * 1e6 / static_cast<double>(r.draws), r.speedup(),
        r.warm_template_builds, r.warm_template_hits, r.template_bytes,
        i + 1 < forms.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"form_gate\": %.1f\n}\n", kFormGate);
  std::fclose(f);
}

// Returns false when warm is less than 2x faster than cold.
bool Run() {
  const SourceDescription description = ClosedDescription();
  const Schema schema = MemoSchema();
  Table table("src", schema);
  for (int64_t row = 0; row < 8; ++row) {
    std::vector<Value> values;
    for (size_t i = 0; i < kSegments; ++i) {
      values.push_back(Value::Int(row * 7 + static_cast<int64_t>(i)));
    }
    (void)table.AppendValues(values);
  }
  const std::vector<std::vector<size_t>> orders = ShapeOrders();
  const std::vector<size_t> draws = ZipfDraws();

  std::vector<MemoRun> runs(2);
  runs[0].name = "cold";
  runs[0].handle_per_draw = true;
  runs[1].name = "warm";
  std::printf(
      "\nE14: %zu draws over %zu shapes (Zipf s=%.1f), fresh constants per "
      "draw, grammar %zu rules\n",
      kDraws, kDistinctShapes, kZipfS, description.grammar().rules().size());
  std::printf("%-8s %10s %12s %18s %16s\n", "config", "seconds", "us/draw",
              "earley items/draw", "templates b/h");
  for (MemoRun& run : runs) {
    RunConfig(description, table, orders, draws, &run);
    std::printf("%-8s %10.4f %12.1f %18.1f %9zu/%zu\n", run.name, run.seconds,
                PerDraw(run.seconds * 1e6),
                PerDraw(static_cast<double>(run.earley_items)),
                run.template_builds, run.template_hits);
  }
  std::printf("warm memo: %zu shapes after %zu draws\n", runs[1].memo_shapes,
              kDraws);

  const double warm_speedup =
      runs[1].seconds > 0.0 ? runs[0].seconds / runs[1].seconds : 0.0;
  bool pass = warm_speedup >= 2.0 && runs[0].plans_ok == kDraws &&
              runs[1].plans_ok == kDraws;
  std::printf("\nacceptance: warm-over-cold planning speedup %.2fx "
              "(need >= 2x, every draw planned) -> %s\n",
              warm_speedup, pass ? "PASS" : "FAIL");

  std::vector<FormRun> forms(2);
  forms[0].name = "example1.2";
  forms[1].name = "example1.1";
  const Dataset cars = MakeCarSource(2000, /*seed=*/7);
  const Dataset books = MakeBookstore(4000, /*seed=*/42);
  std::printf("\nE14 forms: %zu draws each, fresh constants per draw\n",
              kFormDraws);
  std::printf("%-11s %14s %14s %9s %14s %15s\n", "example", "cold us/draw",
              "warm us/draw", "speedup", "warm b/h", "template bytes");
  for (FormRun& form : forms) {
    form.draws = kFormDraws;
    RunForm(&form == &forms[0] ? cars : books,
            &form == &forms[0] ? CarDraw : BookDraw, &form);
    std::printf("%-11s %14.1f %14.1f %8.1fx %9zu/%zu %15zu\n", form.name,
                form.cold_seconds * 1e6 / static_cast<double>(form.draws),
                form.warm_seconds * 1e6 / static_cast<double>(form.draws),
                form.speedup(), form.warm_template_builds,
                form.warm_template_hits, form.template_bytes);
    const bool form_pass =
        form.speedup() >= kFormGate && form.plans_ok == 2 * form.draws;
    std::printf("acceptance: %s warm-over-cold %.1fx (need >= %.0fx, every "
                "draw planned) -> %s\n",
                form.name, form.speedup(), kFormGate,
                form_pass ? "PASS" : "FAIL");
    pass = pass && form_pass;
  }
  WriteJson(runs, forms, description.grammar().rules().size(), warm_speedup,
            "BENCH_checkmemo.json");
  return pass;
}

}  // namespace
}  // namespace bench_memo
}  // namespace gencompact

int main(int argc, char** argv) {
  // E14 first; it writes BENCH_checkmemo.json.
  const bool e14_passed = gencompact::bench_memo::Run();
  benchmark::Initialize(&argc, argv);  // E6 microbenchmarks below
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return e14_passed ? 0 : 1;
}
