// E15: SP(C, A, R) scans over the dictionary-coded column mirror vs the
// original row walk.
//
// Single-threaded scans over the car dataset, one leg per row of output:
//   reference — the original row walk, kept here as the yardstick: per-row
//     CompiledEvaluator::Matches over Table::rows(), then project + set
//     insert per match.
//   width 0   — what Source::Execute runs by default: the compiled
//     condition filters the mirror's condition columns in fixed-size
//     batches, then only the matching rows are projected from
//     Table::rows(), in ascending row order.
//   width 64 / 256 / 1024 / 4096 — the batch path: the same filter, then
//     column-wise hashing, id-level dedup and the columnar wire
//     encode/decode, exactly as Source::Execute runs it at batch_width > 0.
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
// Gates (the exit code): every leg returns exactly the reference's rows
// (type-exact cells; at width 0 also the same RowSet order); width 0 is at
// least 5x the reference on selective and at least 8x on list-field; the
// best batched width is at least 4x the reference on large-transfer; and
// large-transfer throughput does not collapse as the width grows. Results
// print as a table and are emitted as BENCH_scan.json.

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
constexpr size_t kReference = SIZE_MAX;  // leg id of the row walk
const size_t kLegs[] = {kReference, 0, 64, 256, 1024, 4096};

struct Workload {
  std::string name;
  ConditionPtr condition;
  AttributeSet attrs;
};

struct Cell {
  std::string workload;
  size_t leg = kReference;
  double ms = 0;          // best-of-kRepetitions scan time
  double mrows_per_sec = 0;
  double speedup = 1.0;   // vs the reference leg of the same workload
  size_t result_rows = 0;
  uint64_t wire_bytes = 0;
  bool rows_ok = true;    // same rows as the reference (and order at 0)
};

std::string LegName(size_t leg) {
  return leg == kReference ? "reference" : "width " + std::to_string(leg);
}

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

/// True iff `got` holds exactly `want`'s rows (type-exact cells), and, when
/// `same_order`, iterates them in the same order.
bool SameRows(const RowSet& want, const RowSet& got, bool same_order) {
  if (want.size() != got.size() ||
      want.layout().attrs() != got.layout().attrs()) {
    return false;
  }
  if (same_order) {
    return std::equal(want.rows().begin(), want.rows().end(),
                      got.rows().begin(), CellsIdentical);
  }
  for (const Row& row : got.rows()) {
    const auto it = want.rows().find(row);
    if (it == want.rows().end() || !CellsIdentical(*it, row)) return false;
  }
  return true;
}

Cell RunCell(const Table& table, const Workload& workload, size_t leg,
             const RowSet* reference, RowSet* out) {
  Cell cell;
  cell.workload = workload.name;
  cell.leg = leg;
  ScanOptions options;
  options.batch_width = leg == kReference ? 0 : leg;
  // What Source::Execute does: unconditioned local download-all scans skip
  // the wire round-trip (nothing crosses a "network" for a local table dump).
  options.wire_encode =
      options.batch_width > 0 && !workload.condition->is_true();
  double best_ms = 0;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    ScanMetrics metrics;
    const auto start = std::chrono::steady_clock::now();
    Result<RowSet> rows =
        leg == kReference
            ? ReferenceScan(table, *workload.condition, workload.attrs)
            : ScanTable(table, *workload.condition, workload.attrs, options,
                        &metrics);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    if (!rows.ok()) {
      std::printf("ERROR: %s\n", rows.status().ToString().c_str());
      cell.rows_ok = false;
      return cell;
    }
    cell.result_rows = rows->size();
    cell.wire_bytes = metrics.wire_bytes;
    if (rep == 0 || ms < best_ms) best_ms = ms;
    if (rep + 1 == kRepetitions) *out = std::move(rows).value();
  }
  if (reference != nullptr) {
    cell.rows_ok = SameRows(*reference, *out, /*same_order=*/leg == 0);
  }
  cell.ms = best_ms;
  cell.mrows_per_sec =
      best_ms > 0 ? static_cast<double>(table.num_rows()) / best_ms / 1000.0
                  : 0;
  return cell;
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
                 "\"wire_bytes\": %llu, \"rows_match_reference\": %s}%s\n",
                 c.workload.c_str(), LegName(c.leg).c_str(), c.ms,
                 c.mrows_per_sec, c.speedup, c.result_rows,
                 static_cast<unsigned long long>(c.wire_bytes),
                 c.rows_ok ? "true" : "false", i + 1 < cells.size() ? "," : "");
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
                       *schema.MakeSet({"make", "size", "color"})});
  workloads.push_back(
      {"download-all", ConditionNode::True(), schema.AllAttributes()});
  workloads.push_back(
      {"selective",
       MustParse("make = \"BMW\" and style = \"sedan\" and price <= 32000"),
       *schema.MakeSet({"make", "model", "price"})});
  workloads.push_back(
      {"list-field",
       MustParse("style = \"sedan\" and (size = \"compact\" or size = "
                 "\"midsize\") and make = \"BMW\" and price <= 32000"),
       *schema.MakeSet({"make", "model", "price"})});

  // Build the mirror outside the timings: Source pays each column once per
  // table, on its first scan, not once per query.
  (void)table.columns(schema.AllAttributes());

  const std::vector<int> widths = {15, 10, 9, 11, 9, 9, 12, 6};
  PrintRow({"workload", "leg", "ms", "Mrows/s", "speedup", "rows",
            "wire bytes", "rows"},
           widths);
  PrintRule(widths);

  std::vector<Cell> cells;
  double large_transfer_best_speedup = 0;
  double selective_width0_speedup = 0;
  double list_field_width0_speedup = 0;
  bool scaling_ok = true;
  bool rows_ok = true;
  for (const Workload& workload : workloads) {
    double reference_ms = 0;
    double prev_mrows = 0;
    RowSet reference_rows;
    for (const size_t leg : kLegs) {
      RowSet rows;
      Cell cell = RunCell(table, workload, leg,
                          leg == kReference ? nullptr : &reference_rows, &rows);
      if (leg == kReference) {
        reference_ms = cell.ms;
        reference_rows = std::move(rows);
      } else {
        cell.speedup = cell.ms > 0 ? reference_ms / cell.ms : 0;
        if (leg == 0 && workload.name == "selective") {
          selective_width0_speedup = cell.speedup;
        }
        if (leg == 0 && workload.name == "list-field") {
          list_field_width0_speedup = cell.speedup;
        }
        if (leg > 0 && workload.name == "large-transfer") {
          large_transfer_best_speedup =
              std::max(large_transfer_best_speedup, cell.speedup);
          // Throughput must not collapse as the width grows: every batched
          // width at least holds the smallest batched width's pace.
          if (prev_mrows > 0 && cell.mrows_per_sec < 0.5 * prev_mrows) {
            scaling_ok = false;
          }
          prev_mrows = std::max(prev_mrows, cell.mrows_per_sec);
        }
      }
      rows_ok = rows_ok && cell.rows_ok;
      PrintRow({workload.name, leg == kReference ? "reference"
                                                 : std::to_string(leg),
                FormatDouble(cell.ms, 2), FormatDouble(cell.mrows_per_sec, 1),
                FormatDouble(cell.speedup, 2), std::to_string(cell.result_rows),
                std::to_string(cell.wire_bytes),
                cell.rows_ok ? "same" : "DIFF"},
               widths);
      cells.push_back(std::move(cell));
    }
    PrintRule(widths);
  }

  const bool selective_ok = selective_width0_speedup >= 5.0;
  const bool list_field_ok = list_field_width0_speedup >= 8.0;
  const bool large_transfer_ok = large_transfer_best_speedup >= 4.0;
  std::printf("\nACCEPTANCE every leg returns the reference's rows (width 0 "
              "also its order): %s\n",
              rows_ok ? "PASS" : "FAIL");
  std::printf(
      "ACCEPTANCE selective width-0 speedup over the reference: %.2fx "
      "(target >= 5x): %s\n",
      selective_width0_speedup, selective_ok ? "PASS" : "FAIL");
  std::printf(
      "ACCEPTANCE list-field width-0 speedup over the reference: %.2fx "
      "(target >= 8x): %s\n",
      list_field_width0_speedup, list_field_ok ? "PASS" : "FAIL");
  std::printf(
      "ACCEPTANCE large-transfer best batched speedup over the reference: "
      "%.2fx (target >= 4x): %s\n",
      large_transfer_best_speedup, large_transfer_ok ? "PASS" : "FAIL");
  std::printf("ACCEPTANCE throughput scales with batch width: %s\n",
              scaling_ok ? "PASS" : "FAIL");

  WriteJson(cells, "BENCH_scan.json");
  return rows_ok && selective_ok && list_field_ok && large_transfer_ok &&
                 scaling_ok
             ? 0
             : 1;
}

}  // namespace
}  // namespace gencompact::bench

int main() { return gencompact::bench::Run(); }
