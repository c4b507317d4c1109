// E9 (extension, "Fig 6"): the complex-query extension — capability-
// sensitive bind-join vs. independent evaluation for two-source joins.
//
// The paper defers complex queries to [2] but positions selection queries
// as "the building blocks of more complex queries". This benchmark shows
// the building blocks composing: as the left side becomes more selective
// (fewer distinct join keys), the bind-join transfers dramatically fewer
// rows than evaluating the right side independently; with an unselective
// left side, independent evaluation wins. Each case runs the federation
// processor's cost-chosen plan against both forced edge methods; the bench
// exits nonzero when the three answers differ or the chosen plan's modeled
// cost exceeds a feasible forced variant's.
//
// E17: N-source federation planning — star and chain query graphs at 3, 5,
// and 8 sources, comparing the DPccp-style DP enumerator against the greedy
// and left-deep baselines on modeled plan cost, planning wall-clock, and
// execution wall-clock. Every cell also runs once with each source charging
// a 1 ms round trip on a FakeClock: the answer's virtual time is the join's
// critical path. Emitted as BENCH_join.json; exits nonzero when DP loses its
// optimality guarantee (a baseline beats it), the three modes disagree on
// the answer, or a join's virtual time is not its tree's round-trip depth.

#include <algorithm>
#include <chrono>
#include <optional>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "expr/condition_parser.h"
#include "mediator/federation.h"
#include "ssdl/capability_builder.h"
#include "workload/datasets.h"

namespace gencompact::bench {
namespace {

constexpr const char* kMakes[] = {"m00", "m01", "m02", "m03", "m04", "m05",
                                  "m06", "m07", "m08", "m09", "m10", "m11",
                                  "m12", "m13", "m14", "m15", "m16", "m17",
                                  "m18", "m19"};

std::unique_ptr<Catalog> BuildCatalog() {
  auto catalog = std::make_unique<Catalog>();

  // Left: listing source, supports make/price conjunctions and download.
  Schema cars_schema({{"make", ValueType::kString},
                      {"model", ValueType::kString},
                      {"price", ValueType::kInt}});
  CapabilityBuilder cars_builder("cars", cars_schema);
  (void)cars_builder.AddConjunctiveForm(
      "f",
      {{"make", {CompareOp::kEq}, true, false},
       {"price", {CompareOp::kLt, CompareOp::kLe}, true, false}},
      {"make", "model", "price"});
  (void)cars_builder.AddDownload("dl", {"make", "model", "price"});
  SourceDescription cars_desc = cars_builder.Build();
  cars_desc.set_cost_constants(10.0, 1.0);

  Rng rng(4242);
  auto cars_table = std::make_unique<Table>("cars", cars_schema);
  for (int i = 0; i < 20000; ++i) {
    const std::string make(kMakes[rng.NextIndex(20)]);
    (void)cars_table->AppendValues(
        {Value::String(make), Value::String(make + "_" + std::to_string(i)),
         Value::Int(rng.NextInt(5000, 60000))});
  }
  (void)catalog->Register(std::move(cars_desc), std::move(cars_table));

  // Right: dealer directory; make (or make list) required OR full download,
  // so both join methods are feasible and the planner must choose by cost.
  Schema dealers_schema({{"make", ValueType::kString},
                         {"dealer", ValueType::kString},
                         {"rating", ValueType::kInt}});
  CapabilityBuilder dealers_builder("dealers", dealers_schema);
  (void)dealers_builder.AddConjunctiveForm(
      "f", {{"make", {CompareOp::kEq}, false, true}},
      {"make", "dealer", "rating"});
  (void)dealers_builder.AddDownload("dl", {"make", "dealer", "rating"});
  SourceDescription dealers_desc = dealers_builder.Build();
  dealers_desc.set_cost_constants(8.0, 1.0);

  auto dealers_table = std::make_unique<Table>("dealers", dealers_schema);
  for (int i = 0; i < 5000; ++i) {
    (void)dealers_table->AppendValues(
        {Value::String(kMakes[rng.NextIndex(20)]),
         Value::String("d" + std::to_string(i)), Value::Int(rng.NextInt(1, 5))});
  }
  (void)catalog->Register(std::move(dealers_desc), std::move(dealers_table));
  return catalog;
}

// One E9 variant: the cost-chosen plan (no force) or a forced edge method.
struct E9Run {
  bool ok = false;
  std::vector<Row> rows;  ///< the answer, sorted
  double cost = 0.0;      ///< the enumerator's modeled cost
  std::string tree;
  size_t queries = 0;
  uint64_t dealer_rows = 0;  ///< rows the dealers source returned
};

E9Run RunE9Variant(CatalogEntry* cars, CatalogEntry* dealers,
                   const FederatedQuery& query,
                   std::optional<EdgeMethod> force) {
  FederationOptions options;
  options.force_method = force;
  FederationProcessor processor({cars, dealers}, options);
  const uint64_t before = dealers->source()->stats().rows_returned;
  const Result<RowSet> rows = processor.Execute(query);
  E9Run run;
  run.dealer_rows = dealers->source()->stats().rows_returned - before;
  if (!rows.ok()) return run;
  run.ok = true;
  run.rows = rows->SortedRows();
  run.cost = processor.stats().plan.estimated_cost;
  run.tree = processor.stats().plan.tree;
  run.queries = processor.stats().exec.source_queries;
  return run;
}

bool Run() {
  std::unique_ptr<Catalog> catalog = BuildCatalog();
  CatalogEntry* cars = *catalog->Find("cars");
  CatalogEntry* dealers = *catalog->Find("dealers");

  const std::vector<int> widths = {16, 21, 9, 12, 13, 9, 12, 11, 12};
  PrintRow({"left selectivity", "chosen", "queries", "rows (bind)",
            "rows (indep)", "results", "cost chosen", "cost bind",
            "cost indep"},
           widths);
  PrintRule(widths);

  // Vary left selectivity: one make (1 key) ... no filter (20 keys).
  struct Case {
    const char* label;
    const char* condition;
  };
  const Case kCases[] = {
      {"1 make", "cars.make = \"m03\" and cars.price < 20000"},
      {"price < 8000", "cars.price < 8000"},
      {"price < 20000", "cars.price < 20000"},
      {"all cars", "true"},
  };

  bool answers_agree = true;
  bool chosen_cheapest = true;
  for (const Case& c : kCases) {
    FederatedQuery query;
    query.sources = {"cars", "dealers"};
    query.keys = {{"cars.make", "dealers.make"}};
    const Result<ConditionPtr> cond = ParseCondition(c.condition);
    if (!cond.ok()) continue;
    query.condition = *cond;
    query.select = {"dealers.dealer"};

    const E9Run chosen = RunE9Variant(cars, dealers, query, std::nullopt);
    const E9Run bind = RunE9Variant(cars, dealers, query, EdgeMethod::kBind);
    const E9Run indep =
        RunE9Variant(cars, dealers, query, EdgeMethod::kIndependent);
    if (!chosen.ok) {
      answers_agree = false;
    } else {
      for (const E9Run* forced : {&bind, &indep}) {
        if (!forced->ok) continue;
        if (forced->rows != chosen.rows) answers_agree = false;
        if (chosen.cost > forced->cost * (1.0 + 1e-9)) chosen_cheapest = false;
      }
    }

    const auto cost = [](const E9Run& run) {
      return run.ok ? FormatDouble(run.cost, 0) : std::string("-");
    };
    PrintRow({c.label, chosen.ok ? chosen.tree : "-",
              chosen.ok ? std::to_string(chosen.queries) : "-",
              bind.ok ? std::to_string(bind.dealer_rows) : "-",
              indep.ok ? std::to_string(indep.dealer_rows) : "-",
              chosen.ok ? std::to_string(chosen.rows.size()) : "-",
              cost(chosen), cost(bind), cost(indep)},
             widths);
  }

  std::printf("\nACCEPTANCE chosen and forced plans return the same answer: "
              "%s\n",
              answers_agree ? "PASS" : "FAIL");
  std::printf("ACCEPTANCE chosen plan's modeled cost <= every feasible "
              "forced variant: %s\n",
              chosen_cheapest ? "PASS" : "FAIL");
  return answers_agree && chosen_cheapest;
}

// ---------------------------------------------------------------------------
// E17: N-source federation planning (DP vs greedy vs left-deep)
// ---------------------------------------------------------------------------

constexpr uint64_t kFedSeed = 1717;

struct FedCell {
  std::string topology;
  int sources = 0;
  std::string mode;
  bool feasible = false;
  double plan_cost = 0.0;
  double plan_ms = 0.0;
  double exec_ms = 0.0;
  size_t rows = 0;
  size_t dp_subsets = 0;
  bool greedy_used = false;
  // The critical-path run: 1 ms per round trip on a FakeClock.
  double exec_virtual_ms = 0.0;
  size_t source_queries = 0;
  int depth = 0;  ///< round trips on the chosen tree's critical path
};

/// Round trips on the critical path of a join tree: 1 for a leaf fetch,
/// max(l, r) for an independent edge (both sides are in flight together),
/// and l + 1 for a bind edge (all of its batches leave once the left side
/// has landed).
int TreeDepth(const std::unordered_map<uint64_t, SubsetPlan>& table,
              uint64_t set) {
  const SubsetPlan& node = table.at(set);
  if (node.left == 0) return 1;
  const int left = TreeDepth(table, node.left);
  if (node.method == EdgeMethod::kBind) return left + 1;
  return std::max(left, TreeDepth(table, node.right));
}

std::string FedKey(const Rng& /*unused*/, int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%03d", i);
  return buf;
}

// Star: r0(k, v) at the center, satellites r1..r{n-1}(k, w) each joined to
// the center on k. Satellites hold one row per key, so the answer size stays
// flat as sources are added — the planner's job, not the data's, grows.
void BuildStar(int n, Catalog* catalog, FederatedQuery* query) {
  Rng rng(kFedSeed + static_cast<uint64_t>(n));
  {
    Schema schema({{"k", ValueType::kString}, {"v", ValueType::kInt}});
    CapabilityBuilder builder("r0", schema);
    (void)builder.AddConjunctiveForm(
        "f",
        {{"v", {CompareOp::kLt}, true, false}, {"k", {CompareOp::kEq}, true, true}},
        {"k", "v"});
    (void)builder.AddDownload("dl", {"k", "v"});
    SourceDescription desc = builder.Build();
    desc.set_cost_constants(10.0, 1.0);
    auto table = std::make_unique<Table>("r0", schema);
    for (int i = 0; i < 400; ++i) {
      (void)table->AppendValues({Value::String(FedKey(rng, rng.NextInt(0, 63))),
                                 Value::Int(rng.NextInt(0, 999))});
    }
    (void)catalog->Register(std::move(desc), std::move(table));
  }
  query->sources = {"r0"};
  for (int s = 1; s < n; ++s) {
    const std::string name = "r" + std::to_string(s);
    Schema schema({{"k", ValueType::kString}, {"w", ValueType::kInt}});
    CapabilityBuilder builder(name, schema);
    (void)builder.AddConjunctiveForm(
        "f", {{"k", {CompareOp::kEq}, false, true}}, {"k", "w"});
    (void)builder.AddDownload("dl", {"k", "w"});
    SourceDescription desc = builder.Build();
    desc.set_cost_constants(5.0, 1.0);
    auto table = std::make_unique<Table>(name, schema);
    for (int i = 0; i < 64; ++i) {
      (void)table->AppendValues(
          {Value::String(FedKey(rng, i)), Value::Int(rng.NextInt(0, 999))});
    }
    (void)catalog->Register(std::move(desc), std::move(table));
    query->sources.push_back(name);
    query->keys.push_back({"r0.k", name + ".k"});
  }
  query->condition = *ParseCondition("r0.v < 100");
  query->select = {"r0.k", "r0.v"};
}

// Chain: r0 — r1 — ... — r{n-1}, each hop joining r_i.right to r_{i+1}.left
// over a shared 256-value link domain, one row per key on average.
void BuildChain(int n, Catalog* catalog, FederatedQuery* query) {
  Rng rng(kFedSeed * 31 + static_cast<uint64_t>(n));
  for (int s = 0; s < n; ++s) {
    const std::string name = "r" + std::to_string(s);
    Schema schema({{"left", ValueType::kString},
                   {"right", ValueType::kString},
                   {"v", ValueType::kInt}});
    CapabilityBuilder builder(name, schema);
    (void)builder.AddConjunctiveForm(
        "f",
        {{"v", {CompareOp::kLt}, true, false},
         {"left", {CompareOp::kEq}, true, true},
         {"right", {CompareOp::kEq}, true, true}},
        {"left", "right", "v"});
    (void)builder.AddDownload("dl", {"left", "right", "v"});
    SourceDescription desc = builder.Build();
    desc.set_cost_constants(10.0, 1.0);
    auto table = std::make_unique<Table>(name, schema);
    for (int i = 0; i < 256; ++i) {
      char left[16], right[16];
      std::snprintf(left, sizeof(left), "x%03d",
                    static_cast<int>(rng.NextInt(0, 255)));
      std::snprintf(right, sizeof(right), "x%03d",
                    static_cast<int>(rng.NextInt(0, 255)));
      (void)table->AppendValues({Value::String(left), Value::String(right),
                                 Value::Int(rng.NextInt(0, 999))});
    }
    (void)catalog->Register(std::move(desc), std::move(table));
    query->sources.push_back(name);
    if (s > 0) {
      query->keys.push_back(
          {"r" + std::to_string(s - 1) + ".right", name + ".left"});
    }
  }
  query->condition = *ParseCondition("r0.v < 100");
  query->select = {"r0.left", "r0.v"};
}

FedCell RunFedMode(Catalog* catalog, const FederatedQuery& query,
                   const std::string& topology, int n,
                   JoinEnumerator::Mode mode, const std::string& label) {
  FedCell cell;
  cell.topology = topology;
  cell.sources = n;
  cell.mode = label;

  std::vector<CatalogEntry*> entries;
  for (const std::string& name : query.sources) {
    entries.push_back(*catalog->Find(name));
  }
  FederationOptions options;
  options.enumerate.mode = mode;
  FederationProcessor processor(entries, options);

  const auto plan_start = std::chrono::steady_clock::now();
  const Result<FederationPlanOutcome> outcome = processor.Plan(query);
  cell.plan_ms = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - plan_start)
                     .count();
  if (!outcome.ok()) return cell;
  cell.plan_cost = outcome->estimated_cost;
  cell.dp_subsets = outcome->enumeration.stats.subsets_expanded;
  cell.greedy_used = outcome->enumeration.stats.used_greedy;

  const auto exec_start = std::chrono::steady_clock::now();
  const Result<RowSet> rows = processor.Execute(query);
  cell.exec_ms = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - exec_start)
                     .count();
  if (!rows.ok()) return cell;

  // The critical path, timed in virtual time with every source charging
  // one 1 ms round trip per call.
  FakeClock clock;
  options.exec.clock = &clock;
  FederationProcessor timed(entries, options);
  for (CatalogEntry* entry : entries) {
    entry->source()->set_simulated_latency(std::chrono::milliseconds(1));
  }
  const auto virtual_start = clock.Now();
  const Result<RowSet> timed_rows = timed.Execute(query);
  cell.exec_virtual_ms = std::chrono::duration<double, std::milli>(
                             clock.Now() - virtual_start)
                             .count();
  for (CatalogEntry* entry : entries) {
    entry->source()->set_simulated_latency(std::chrono::microseconds(0));
  }
  if (!timed_rows.ok() || timed_rows->size() != rows->size()) return cell;
  cell.source_queries = timed.stats().exec.source_queries;
  cell.depth = TreeDepth(timed.stats().plan.enumeration.table,
                         (uint64_t{1} << entries.size()) - 1);
  cell.feasible = true;
  cell.rows = rows->size();
  return cell;
}

void WriteFedJson(const std::vector<FedCell>& cells, const char* path) {
  std::FILE* f = OpenBenchJson(path, "join");
  if (f == nullptr) return;
  std::fprintf(f, "  \"experiment\": \"E17\",\n");
  std::fprintf(f, "  \"seed\": %llu,\n",
               static_cast<unsigned long long>(kFedSeed));
  std::fprintf(f, "  \"virtual_round_trip_ms\": 1,\n");
  std::fprintf(f, "  \"cells\": [\n");
  for (size_t i = 0; i < cells.size(); ++i) {
    const FedCell& c = cells[i];
    std::fprintf(
        f,
        "    {\"topology\": \"%s\", \"sources\": %d, \"mode\": \"%s\", "
        "\"feasible\": %s, \"plan_cost\": %.3f, \"plan_ms\": %.3f, "
        "\"exec_ms\": %.3f, \"rows\": %zu, \"dp_subsets\": %zu, "
        "\"greedy_used\": %s, \"source_queries\": %zu, "
        "\"tree_depth\": %d, \"exec_virtual_ms\": %.3f}%s\n",
        c.topology.c_str(), c.sources, c.mode.c_str(),
        c.feasible ? "true" : "false", c.plan_cost, c.plan_ms, c.exec_ms,
        c.rows, c.dp_subsets, c.greedy_used ? "true" : "false",
        c.source_queries, c.depth, c.exec_virtual_ms,
        i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

bool RunE17() {
  const std::vector<int> widths = {8, 7, 9, 12, 10, 10, 8, 11, 8, 6, 10};
  PrintRow({"topology", "sources", "mode", "plan cost", "plan ms", "exec ms",
            "rows", "dp subsets", "queries", "depth", "virtual ms"},
           widths);
  PrintRule(widths);

  std::vector<FedCell> cells;
  bool dp_optimal = true;
  bool answers_agree = true;
  bool all_feasible = true;
  bool critical_path = true;

  const struct {
    const char* name;
    void (*build)(int, Catalog*, FederatedQuery*);
  } kTopologies[] = {{"star", BuildStar}, {"chain", BuildChain}};
  const struct {
    JoinEnumerator::Mode mode;
    const char* label;
  } kModes[] = {{JoinEnumerator::Mode::kDp, "dp"},
                {JoinEnumerator::Mode::kGreedy, "greedy"},
                {JoinEnumerator::Mode::kLeftDeep, "leftdeep"}};

  for (const auto& topology : kTopologies) {
    for (const int n : {3, 5, 8}) {
      Catalog catalog;
      FederatedQuery query;
      topology.build(n, &catalog, &query);

      double dp_cost = 0.0;
      size_t dp_rows = 0;
      for (const auto& m : kModes) {
        FedCell cell =
            RunFedMode(&catalog, query, topology.name, n, m.mode, m.label);
        if (!cell.feasible) all_feasible = false;
        // Every round trip of one tree level is in flight at once, so the
        // answer lands after exactly `depth` of them.
        if (cell.exec_virtual_ms != static_cast<double>(cell.depth)) {
          critical_path = false;
        }
        if (m.mode == JoinEnumerator::Mode::kDp) {
          dp_cost = cell.plan_cost;
          dp_rows = cell.rows;
        } else if (cell.feasible) {
          // DP is exact over the same cost model: a baseline beating it is
          // an enumerator regression, and the answer never depends on the
          // join order chosen.
          if (dp_cost > cell.plan_cost * (1.0 + 1e-9)) dp_optimal = false;
          if (cell.rows != dp_rows) answers_agree = false;
        }
        PrintRow({cell.topology, std::to_string(cell.sources), cell.mode,
                  FormatDouble(cell.plan_cost, 1),
                  FormatDouble(cell.plan_ms, 3), FormatDouble(cell.exec_ms, 3),
                  std::to_string(cell.rows), std::to_string(cell.dp_subsets),
                  std::to_string(cell.source_queries),
                  std::to_string(cell.depth),
                  FormatDouble(cell.exec_virtual_ms, 3)},
                 widths);
        cells.push_back(std::move(cell));
      }
      PrintRule(widths);
    }
  }

  std::printf("\nACCEPTANCE every mode plans and executes: %s\n",
              all_feasible ? "PASS" : "FAIL");
  std::printf("ACCEPTANCE DP cost <= greedy and left-deep cost: %s\n",
              dp_optimal ? "PASS" : "FAIL");
  std::printf("ACCEPTANCE all modes return the same answer: %s\n",
              answers_agree ? "PASS" : "FAIL");
  std::printf("ACCEPTANCE virtual exec time equals the tree's round-trip "
              "depth: %s\n",
              critical_path ? "PASS" : "FAIL");

  WriteFedJson(cells, "BENCH_join.json");
  return all_feasible && dp_optimal && answers_agree && critical_path;
}

}  // namespace
}  // namespace gencompact::bench

int main() {
  std::printf(
      "# E9 (extension): bind-join vs independent right-side evaluation\n\n");
  const bool e9_ok = gencompact::bench::Run();
  std::printf(
      "\nExpected shape: with a selective left side the bind-join moves a "
      "small fraction of the dealer directory and is chosen; as left "
      "selectivity vanishes the independent download becomes cheaper and "
      "the cost model switches methods.\n");
  std::printf("\n# E17: N-source federation planning (DP vs baselines)\n\n");
  const bool ok = gencompact::bench::RunE17();
  std::printf(
      "\nExpected shape: DP's modeled cost lower-bounds both baselines at "
      "every size; planning stays sub-millisecond through 8 sources while "
      "the baselines' plan quality drifts; a join's virtual time is its "
      "tree depth in round trips, not its source-query count.\n");
  return e9_ok && ok ? 0 : 1;
}
