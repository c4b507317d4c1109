// E16: result-bounded sources — paging loops, refinement, and completeness.
//
// The same car mediator is run with the source's ResultBound contract swept
// across the regimes of the bounded-interface model:
//
//   unbounded     — the reference. Every other configuration is judged
//                   against its row counts.
//   paged-*       — bound 2000 with paging at page sizes 100 / 500 / 2000:
//                   the paging loop must recover the EXACT reference answer,
//                   paying one access per page (cost = k1·pages + k2·rows).
//   paged-faulty  — paging with scripted mid-loop transients: the per-page
//                   retry discipline resumes at the faulted offset, so the
//                   answer stays exact and only the retry counters move.
//   hard-2000     — bound 2000 WITHOUT paging: broad sub-queries are
//                   provably partial; every shortfall must carry a
//                   completeness marker naming the source (the acceptance
//                   bar: zero silently-truncated answers).
//   capped-4      — paging with an access limit of 4 calls per sub-query:
//                   the loop stops at the cap and marks the truncation.
//
// Four workloads ride each configuration: a selective conjunction (fits
// under the bound — all regimes identical), the paper's motivating example
// query, one broad single-make query (over the bound), and a disjunctive
// style query the planner splits into a union of two over-bound form
// queries.
//
// Results print as a table and are emitted as BENCH_bounded.json.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "exec/fault_policy.h"
#include "expr/condition_parser.h"
#include "mediator/mediator.h"
#include "workload/datasets.h"

namespace gencompact::bench {
namespace {

constexpr size_t kNumCars = 20000;
constexpr uint64_t kSeed = 7;
constexpr int kRepetitions = 3;

struct BoundConfig {
  std::string name;
  ResultBound bound;
  bool page_faults = false;  ///< script transients at page offsets
  bool expect_exact = true;  ///< must match the unbounded row counts
};

struct QuerySpec {
  std::string name;
  ConditionPtr cond;
  std::vector<std::string> attrs;
};

struct Cell {
  std::string config;
  std::string workload;
  double ms = 0;  // best-of-kRepetitions end-to-end query time
  size_t rows = 0;
  bool complete = true;
  size_t markers = 0;        // truncation markers on the answer
  uint64_t pages = 0;        // bounded pages fetched (last repetition)
  uint64_t splits = 0;       // plan-time refinement splits (last repetition)
  uint64_t retries = 0;      // source retries (last repetition)
  std::string reason;        // first marker's reason, "" when complete
  bool parity = true;        // rows match the unbounded reference
};

ConditionPtr MustParse(const std::string& text) {
  Result<ConditionPtr> cond = ParseCondition(text);
  if (!cond.ok()) {
    std::printf("bad condition %s: %s\n", text.c_str(),
                cond.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(cond).value();
}

std::unique_ptr<Mediator> MakeMediator(const ResultBound& bound) {
  Dataset dataset = MakeCarSource(kNumCars, kSeed);
  dataset.description.set_result_bound(bound);
  Mediator::Options options;
  options.partial_results = true;  // marked-partial answers, not failures
  options.retry.max_attempts = 4;
  options.retry.backoff.base = std::chrono::microseconds(1);
  options.retry.backoff.cap = std::chrono::microseconds(10);
  auto mediator = std::make_unique<Mediator>(options);
  const Status registered = mediator->RegisterSource(
      std::move(dataset.description), std::move(dataset.table));
  if (!registered.ok()) {
    std::printf("RegisterSource: %s\n", registered.ToString().c_str());
    std::exit(1);
  }
  return mediator;
}

/// Transient faults keyed on page-start offsets: each listed page fails
/// once, then succeeds on the retry — recoverable inside max_attempts = 4.
void ScriptPageFaults(Mediator* mediator, const ResultBound& bound) {
  Result<CatalogEntry*> entry = mediator->catalog()->Find("cars");
  if (!entry.ok()) return;
  const uint64_t page = bound.EffectivePageSize();
  FaultPolicy policy;
  for (uint64_t offset = 0; offset < 4 * page; offset += page) {
    policy.page_faults.push_back({offset, /*fail_count=*/1});
  }
  (*entry)->source()->set_fault_policy(policy);
}

Cell RunCell(Mediator* mediator, const BoundConfig& config,
             const QuerySpec& query) {
  Cell cell;
  cell.config = config.name;
  cell.workload = query.name;
  double best_ms = 0;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    if (config.page_faults) {
      // Re-arm the schedule each repetition: fail counts are consumed.
      ScriptPageFaults(mediator, config.bound);
    }
    const Mediator::Stats before = mediator->StatsSnapshot();
    const auto start = std::chrono::steady_clock::now();
    const Result<Mediator::QueryResult> result = mediator->QueryCondition(
        "cars", query.cond, query.attrs, Strategy::kGenCompact);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    if (!result.ok()) {
      std::printf("ERROR %s/%s: %s\n", config.name.c_str(),
                  query.name.c_str(), result.status().ToString().c_str());
      cell.parity = false;
      return cell;
    }
    const Mediator::Stats after = mediator->StatsSnapshot();
    cell.rows = result->rows.size();
    cell.complete = result->completeness.complete;
    cell.markers = result->completeness.truncated_sources.size();
    cell.reason = cell.markers > 0
                      ? result->completeness.truncated_sources[0].reason
                      : "";
    cell.pages = after.bounded.pages_fetched - before.bounded.pages_fetched;
    cell.splits =
        after.bounded.refinement_splits - before.bounded.refinement_splits;
    cell.retries =
        after.fault_tolerance.retries - before.fault_tolerance.retries;
    if (rep == 0 || ms < best_ms) best_ms = ms;
  }
  cell.ms = best_ms;
  return cell;
}

void WriteJson(const std::vector<Cell>& cells, const char* path) {
  std::FILE* f = OpenBenchJson(path, "bounded");
  if (f == nullptr) return;
  std::fprintf(f, "  \"table_rows\": %zu,\n", kNumCars);
  std::fprintf(f, "  \"seed\": %llu,\n",
               static_cast<unsigned long long>(kSeed));
  std::fprintf(f, "  \"repetitions\": %d,\n", kRepetitions);
  std::fprintf(f, "  \"cells\": [\n");
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::fprintf(
        f,
        "    {\"config\": \"%s\", \"workload\": \"%s\", \"ms\": %.3f, "
        "\"rows\": %zu, \"complete\": %s, \"markers\": %zu, "
        "\"pages\": %llu, \"splits\": %llu, \"retries\": %llu, "
        "\"parity\": %s}%s\n",
        c.config.c_str(), c.workload.c_str(), c.ms, c.rows,
        c.complete ? "true" : "false", c.markers,
        static_cast<unsigned long long>(c.pages),
        static_cast<unsigned long long>(c.splits),
        static_cast<unsigned long long>(c.retries),
        c.parity ? "true" : "false", i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

int Run() {
  std::printf("cars table: %zu rows, bound sweep over the paging regimes\n\n",
              kNumCars);

  // The workloads (attrs chosen so duplicate elimination doesn't mask row
  // counts: model is near-unique).
  Dataset reference_dataset = MakeCarSource(kNumCars, kSeed);
  std::vector<QuerySpec> queries;
  queries.push_back(
      {"selective",
       MustParse("make = \"BMW\" and style = \"sedan\" and price <= 32000"),
       {"make", "model", "price"}});
  queries.push_back({"example", reference_dataset.example_condition,
                     reference_dataset.example_attrs});
  queries.push_back(
      {"broad", MustParse("make = \"Toyota\""), {"make", "model", "price"}});
  queries.push_back({"union",
                     MustParse("style = \"suv\" or style = \"wagon\""),
                     {"make", "model", "style"}});

  const auto paged = [](uint64_t bound, uint64_t page,
                        uint64_t accesses = 0) {
    ResultBound b;
    b.result_bound = bound;
    b.supports_paging = true;
    b.page_size = page;
    b.max_accesses = accesses;
    return b;
  };
  std::vector<BoundConfig> configs;
  configs.push_back({"unbounded", ResultBound{}});
  configs.push_back({"paged-100", paged(2000, 100)});
  configs.push_back({"paged-500", paged(2000, 500)});
  configs.push_back({"paged-2000", paged(2000, 0)});
  {
    BoundConfig faulty{"paged-faulty", paged(2000, 500)};
    faulty.page_faults = true;
    configs.push_back(faulty);
  }
  {
    ResultBound hard;
    hard.result_bound = 2000;
    BoundConfig config{"hard-2000", hard};
    config.expect_exact = false;  // broad queries are provably partial
    configs.push_back(config);
  }
  {
    BoundConfig config{"capped-4", paged(2000, 500, /*accesses=*/4)};
    config.expect_exact = false;  // the cap stops the loop at 2000 rows
    configs.push_back(config);
  }

  const std::vector<int> widths = {12, 9, 8, 6, 8, 6, 6, 7, 26};
  PrintRow({"config", "workload", "ms", "rows", "complete", "pages",
            "splits", "retries", "marker"},
           widths);
  PrintRule(widths);

  std::vector<Cell> cells;
  std::vector<size_t> reference_rows;
  bool exact_ok = true;
  bool no_silent_truncation = true;
  bool faults_absorbed = true;
  for (const BoundConfig& config : configs) {
    std::unique_ptr<Mediator> mediator = MakeMediator(config.bound);
    for (size_t q = 0; q < queries.size(); ++q) {
      Cell cell = RunCell(mediator.get(), config, queries[q]);
      if (config.name == "unbounded") {
        reference_rows.push_back(cell.rows);
      } else {
        cell.parity = cell.rows == reference_rows[q];
        if (config.expect_exact &&
            (!cell.parity || !cell.complete || cell.markers > 0)) {
          exact_ok = false;
        }
        // The tentpole's acceptance bar: an answer short of the reference
        // is NEVER silent — it is marked incomplete with a named source.
        if (cell.rows < reference_rows[q] &&
            (cell.complete || cell.markers == 0)) {
          no_silent_truncation = false;
        }
        if (config.page_faults && cell.retries == 0) {
          faults_absorbed = false;  // the schedule never fired
        }
      }
      PrintRow({cell.config, cell.workload, FormatDouble(cell.ms, 2),
                std::to_string(cell.rows), cell.complete ? "yes" : "NO",
                std::to_string(cell.pages), std::to_string(cell.splits),
                std::to_string(cell.retries),
                cell.reason.substr(0, 26)},
               widths);
      cells.push_back(std::move(cell));
    }
    PrintRule(widths);
  }

  std::printf(
      "\nACCEPTANCE paged/faulty configurations recover the exact answer: "
      "%s\n",
      exact_ok ? "PASS" : "FAIL");
  std::printf("ACCEPTANCE zero silently-truncated answers: %s\n",
              no_silent_truncation ? "PASS" : "FAIL");
  std::printf("ACCEPTANCE scripted page faults fired and were retried: %s\n",
              faults_absorbed ? "PASS" : "FAIL");

  WriteJson(cells, "BENCH_bounded.json");
  return exact_ok && no_silent_truncation && faults_absorbed ? 0 : 1;
}

}  // namespace
}  // namespace gencompact::bench

int main() { return gencompact::bench::Run(); }
