// E15: SP(C, A, R) scans over the dictionary-coded column mirror vs the
// original row walk.
//
// Single-threaded scans over the car dataset, two legs per workload, run
// alternately (reference, scan, reference, ...) so that both see the same
// machine load; each leg reports its best of kRepetitions:
//   reference — the original row walk, kept here as the yardstick: per-row
//     CompiledEvaluator::Matches over Table::rows(), then project + set
//     insert per match.
//   scan      — ScanTable, what Source::Execute runs: the compiled
//     condition filters the mirror's condition columns in fixed-size
//     batches, the survivors' projected columns are hashed from the mirror,
//     duplicates are dropped on row ids, and only the first occurrences are
//     built, in ascending row order.
//
// Workloads:
//   large-transfer — every row passes the condition and the projection is
//     duplicate-heavy (few distinct tuples): the paper's expensive case,
//     where the mediator ships and deduplicates a large transfer.
//   download-all   — trivial condition, full attribute set (every tuple
//     unique): materialization-bound.
//   selective      — a narrow conjunction (few matches): evaluation-bound.
//   list-field     — Example 1.2's source-query shape, in the order the
//     planner emits it: a conjunction whose second conjunct is a list
//     field (a same-column string `=` disjunction), which compiles to one
//     dictionary-code membership kernel.
//
// Gates (the exit code): the scan returns exactly the reference's rows
// (type-exact cells, same RowSet order) on every workload, and its speedup
// over the reference is at least 5x on selective, 8x on list-field, 4x on
// large-transfer and 0.95x on download-all (the unique-heavy case must not
// lose to the row walk). Results print as a table and are emitted as
// BENCH_scan.json.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "exec/scan.h"
#include "expr/batch_eval.h"
#include "expr/condition_parser.h"
#include "workload/datasets.h"

namespace gencompact::bench {
namespace {

constexpr size_t kNumCars = 200000;
constexpr uint64_t kSeed = 7;
constexpr int kRepetitions = 5;

struct Workload {
  std::string name;
  ConditionPtr condition;
  AttributeSet attrs;
  double min_speedup = 0;  // gate: scan leg vs the reference leg
};

struct Cell {
  std::string workload;
  std::string leg;
  double ms = 0;          // best-of-kRepetitions scan time
  double mrows_per_sec = 0;
  double speedup = 1.0;   // vs the reference leg of the same workload
  size_t result_rows = 0;
  bool rows_ok = true;    // same rows and RowSet order as the reference
};

/// The original row walk: per-row evaluation, projection and insertion.
Result<RowSet> ReferenceScan(const Table& table, const ConditionNode& cond,
                             const AttributeSet& attrs) {
  const RowLayout full = table.FullLayout();
  const RowLayout projected(attrs, table.schema().num_attributes());
  GC_ASSIGN_OR_RETURN(const CompiledEvaluator evaluator,
                      CompiledEvaluator::Compile(cond, full, table.schema()));
  RowSet result(projected);
  for (const Row& row : table.rows()) {
    if (evaluator.Matches(row)) result.Insert(full.Project(row, projected));
  }
  return result;
}

bool CellsIdentical(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a.value(i).type() != b.value(i).type() ||
        a.value(i).Compare(b.value(i)) != 0) {
      return false;
    }
  }
  return true;
}

/// True iff `got` iterates exactly `want`'s rows (type-exact cells) in the
/// same order.
bool SameRows(const RowSet& want, const RowSet& got) {
  return want.layout().attrs() == got.layout().attrs() &&
         std::equal(want.rows().begin(), want.rows().end(),
                    got.rows().begin(), got.rows().end(), CellsIdentical);
}

/// Runs `leg` once and folds its time into `cell`'s best.
template <typename Leg>
Result<RowSet> TimeLeg(Cell* cell, const Leg& leg) {
  const auto start = std::chrono::steady_clock::now();
  Result<RowSet> rows = leg();
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  if (cell->ms == 0 || ms < cell->ms) cell->ms = ms;
  if (rows.ok()) cell->result_rows = rows->size();
  return rows;
}

/// Times both legs of `workload` kRepetitions times, alternating them
/// repetition by repetition so that a drift in machine load reaches both
/// alike, and checks every scan answer against the reference answer of
/// the same repetition.
void RunWorkload(const Table& table, const Workload& workload,
                 Cell* reference, Cell* scan) {
  const ConditionNode& cond = *workload.condition;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    const Result<RowSet> want = TimeLeg(
        reference, [&] { return ReferenceScan(table, cond, workload.attrs); });
    const Result<RowSet> got = TimeLeg(scan, [&] {
      return ScanTable(table, cond, workload.attrs, ScanOptions{});
    });
    for (const Result<RowSet>* rows : {&want, &got}) {
      if (!rows->ok()) {
        std::printf("ERROR: %s\n", rows->status().ToString().c_str());
        scan->rows_ok = false;
        return;
      }
    }
    scan->rows_ok = scan->rows_ok && SameRows(*want, *got);
  }
  for (Cell* cell : {reference, scan}) {
    cell->mrows_per_sec =
        cell->ms > 0 ? static_cast<double>(table.num_rows()) / cell->ms / 1000.0
                     : 0;
  }
  scan->speedup = scan->ms > 0 ? reference->ms / scan->ms : 0;
}

void WriteJson(const std::vector<Cell>& cells, const char* path) {
  std::FILE* f = OpenBenchJson(path, "scan");
  if (f == nullptr) return;
  std::fprintf(f, "  \"table_rows\": %zu,\n", kNumCars);
  std::fprintf(f, "  \"seed\": %llu,\n",
               static_cast<unsigned long long>(kSeed));
  std::fprintf(f, "  \"repetitions\": %d,\n", kRepetitions);
  std::fprintf(f, "  \"cells\": [\n");
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::fprintf(f,
                 "    {\"workload\": \"%s\", \"leg\": \"%s\", "
                 "\"ms\": %.3f, \"mrows_per_sec\": %.2f, "
                 "\"speedup_vs_reference\": %.2f, \"result_rows\": %zu, "
                 "\"rows_match_reference\": %s}%s\n",
                 c.workload.c_str(), c.leg.c_str(), c.ms, c.mrows_per_sec,
                 c.speedup, c.result_rows, c.rows_ok ? "true" : "false",
                 i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

ConditionPtr MustParse(const std::string& text) {
  Result<ConditionPtr> cond = ParseCondition(text);
  if (!cond.ok()) {
    std::printf("bad condition %s: %s\n", text.c_str(),
                cond.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(cond).value();
}

int Run() {
  const Dataset dataset = MakeCarSource(kNumCars, kSeed);
  const Table& table = *dataset.table;
  const Schema& schema = table.schema();
  std::printf("cars table: %zu rows, %zu attributes\n\n", table.num_rows(),
              schema.num_attributes());

  std::vector<Workload> workloads;
  // Every car has year > 0: all rows pass, and {make, size, color} has few
  // distinct combinations — a maximally duplicate-heavy large transfer.
  workloads.push_back({"large-transfer", MustParse("year > 0"),
                       *schema.MakeSet({"make", "size", "color"}), 4.0});
  workloads.push_back({"download-all", ConditionNode::True(),
                       schema.AllAttributes(), 0.95});
  workloads.push_back(
      {"selective",
       MustParse("make = \"BMW\" and style = \"sedan\" and price <= 32000"),
       *schema.MakeSet({"make", "model", "price"}), 5.0});
  workloads.push_back(
      {"list-field",
       MustParse("style = \"sedan\" and (size = \"compact\" or size = "
                 "\"midsize\") and make = \"BMW\" and price <= 32000"),
       *schema.MakeSet({"make", "model", "price"}), 8.0});

  // Build the mirror outside the timings: Source pays each column once per
  // table, on its first scan, not once per query.
  (void)table.columns(schema.AllAttributes());

  const std::vector<int> widths = {15, 10, 9, 9, 9, 9, 6};
  PrintRow({"workload", "leg", "ms", "Mrows/s", "speedup", "rows", "rows"},
           widths);
  PrintRule(widths);

  std::vector<Cell> cells;
  std::vector<std::string> gates;
  bool ok = true;
  for (const Workload& workload : workloads) {
    Cell reference{workload.name, "reference"};
    Cell scan{workload.name, "scan"};
    RunWorkload(table, workload, &reference, &scan);
    for (const Cell* cell : {&reference, &scan}) {
      PrintRow({cell->workload, cell->leg, FormatDouble(cell->ms, 2),
                FormatDouble(cell->mrows_per_sec, 1),
                FormatDouble(cell->speedup, 2),
                std::to_string(cell->result_rows),
                cell->rows_ok ? "same" : "DIFF"},
               widths);
    }
    PrintRule(widths);
    const bool speed_ok = scan.speedup >= workload.min_speedup;
    char line[160];
    std::snprintf(line, sizeof(line),
                  "ACCEPTANCE %s: same rows and order as the reference: %s; "
                  "speedup %.2fx (target >= %.2fx): %s",
                  workload.name.c_str(), scan.rows_ok ? "PASS" : "FAIL",
                  scan.speedup, workload.min_speedup,
                  speed_ok ? "PASS" : "FAIL");
    gates.push_back(line);
    ok = ok && scan.rows_ok && speed_ok;
    cells.push_back(std::move(reference));
    cells.push_back(std::move(scan));
  }

  std::printf("\n");
  for (const std::string& gate : gates) std::printf("%s\n", gate.c_str());
  WriteJson(cells, "BENCH_scan.json");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace gencompact::bench

int main() { return gencompact::bench::Run(); }
