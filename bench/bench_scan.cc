// E15: the columnar batch data plane vs the row-at-a-time reference path.
//
// Single-threaded SP(C, A, R) scans over the car dataset, one row per cell:
// the width-0 reference path (per-row EvalCondition + Row projection + set
// insertion) against the batched path (compiled kernels over selection
// vectors, column-wise batch hashing, id-level dedup, columnar wire
// encode/decode — exactly what Source::Execute runs at batch_width > 0) at
// widths 64 / 256 / 1024 / 4096.
//
// Workloads:
//   large-transfer — every row passes the condition and the projection is
//     duplicate-heavy (few distinct tuples): the paper's expensive case,
//     where the mediator ships and deduplicates a large transfer. The
//     acceptance target lives here: best batched width >= 4x the row path.
//   download-all   — trivial condition, full attribute set (every tuple
//     unique): materialization-bound; batching must still win.
//   selective      — a narrow conjunction (few matches): evaluation-bound;
//     vectorized kernels shine, little to materialize.
//
// Results print as a table and are emitted as BENCH_scan.json. Row counts
// are identical across widths by construction (the differential fuzzer
// asserts the stronger type-exact parity).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "exec/scan.h"
#include "expr/condition_parser.h"
#include "workload/datasets.h"

namespace gencompact::bench {
namespace {

constexpr size_t kNumCars = 200000;
constexpr uint64_t kSeed = 7;
constexpr int kRepetitions = 5;
const size_t kWidths[] = {0, 64, 256, 1024, 4096};

struct Workload {
  std::string name;
  ConditionPtr condition;
  AttributeSet attrs;
};

struct Cell {
  std::string workload;
  size_t width = 0;       // 0 = row reference path
  double ms = 0;          // best-of-kRepetitions scan time
  double mrows_per_sec = 0;
  double speedup = 1.0;   // vs width 0 of the same workload
  size_t result_rows = 0;
  uint64_t wire_bytes = 0;
};

Cell RunCell(const Table& table, const Workload& workload, size_t width) {
  Cell cell;
  cell.workload = workload.name;
  cell.width = width;
  ScanOptions options;
  options.batch_width = width;
  // What Source::Execute does: unconditioned local download-all scans skip
  // the wire round-trip (nothing crosses a "network" for a local table dump).
  options.wire_encode = width > 0 && !workload.condition->is_true();
  double best_ms = 0;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    ScanMetrics metrics;
    const auto start = std::chrono::steady_clock::now();
    const Result<RowSet> rows =
        ScanTable(table, *workload.condition, workload.attrs, options, &metrics);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    if (!rows.ok()) {
      std::printf("ERROR: %s\n", rows.status().ToString().c_str());
      return cell;
    }
    cell.result_rows = rows->size();
    cell.wire_bytes = metrics.wire_bytes;
    if (rep == 0 || ms < best_ms) best_ms = ms;
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
                 "    {\"workload\": \"%s\", \"batch_width\": %zu, "
                 "\"ms\": %.3f, \"mrows_per_sec\": %.2f, "
                 "\"speedup_vs_row\": %.2f, \"result_rows\": %zu, "
                 "\"wire_bytes\": %llu}%s\n",
                 c.workload.c_str(), c.width, c.ms, c.mrows_per_sec, c.speedup,
                 c.result_rows, static_cast<unsigned long long>(c.wire_bytes),
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
                       *schema.MakeSet({"make", "size", "color"})});
  workloads.push_back(
      {"download-all", ConditionNode::True(), schema.AllAttributes()});
  workloads.push_back(
      {"selective",
       MustParse("make = \"BMW\" and style = \"sedan\" and price <= 32000"),
       *schema.MakeSet({"make", "model", "price"})});

  // Build the lazy ColumnStore outside the timings: Source pays it once per
  // table, not once per query.
  (void)table.columns();

  const std::vector<int> widths = {15, 7, 9, 11, 9, 9, 12};
  PrintRow({"workload", "width", "ms", "Mrows/s", "speedup", "rows",
            "wire bytes"},
           widths);
  PrintRule(widths);

  std::vector<Cell> cells;
  double large_transfer_best_speedup = 0;
  bool scaling_ok = true;
  for (const Workload& workload : workloads) {
    double row_ms = 0;
    double prev_mrows = 0;
    for (const size_t width : kWidths) {
      Cell cell = RunCell(table, workload, width);
      if (width == 0) {
        row_ms = cell.ms;
      } else {
        cell.speedup = cell.ms > 0 ? row_ms / cell.ms : 0;
        if (workload.name == "large-transfer") {
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
      PrintRow({workload.name,
                width == 0 ? "row" : std::to_string(width),
                FormatDouble(cell.ms, 2), FormatDouble(cell.mrows_per_sec, 1),
                width == 0 ? "1.0" : FormatDouble(cell.speedup, 2),
                std::to_string(cell.result_rows),
                std::to_string(cell.wire_bytes)},
               widths);
      cells.push_back(std::move(cell));
    }
    PrintRule(widths);
  }

  std::printf(
      "\nACCEPTANCE large-transfer best batched speedup: %.2fx "
      "(target >= 4x): %s\n",
      large_transfer_best_speedup,
      large_transfer_best_speedup >= 4.0 ? "PASS" : "FAIL");
  std::printf("ACCEPTANCE throughput scales with batch width: %s\n",
              scaling_ok ? "PASS" : "FAIL");

  WriteJson(cells, "BENCH_scan.json");
  return large_transfer_best_speedup >= 4.0 && scaling_ok ? 0 : 1;
}

}  // namespace
}  // namespace gencompact::bench

int main() { return gencompact::bench::Run(); }
