#ifndef GENCOMPACT_BENCH_BENCH_UTIL_H_
#define GENCOMPACT_BENCH_BENCH_UTIL_H_

// Shared helpers for the experiment binaries: a markdown-ish table printer
// and a strategy runner that plans + executes + collects transfer stats.

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "exec/executor.h"
#include "plan/plan_validator.h"
#include "planner/planner.h"

namespace gencompact::bench {

/// Prints a fixed-width table row.
inline void PrintRow(const std::vector<std::string>& cells,
                     const std::vector<int>& widths) {
  std::string line = "|";
  for (size_t i = 0; i < cells.size(); ++i) {
    const int width = i < widths.size() ? widths[i] : 12;
    char buf[256];
    std::snprintf(buf, sizeof(buf), " %-*s |", width, cells[i].c_str());
    line += buf;
  }
  std::printf("%s\n", line.c_str());
}

inline void PrintRule(const std::vector<int>& widths) {
  std::string line = "|";
  for (int width : widths) {
    line += std::string(static_cast<size_t>(width) + 2, '-');
    line += "|";
  }
  std::printf("%s\n", line.c_str());
}

inline std::string FormatDouble(double v, int precision = 1) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

/// The commit the working directory is checked out at (`git rev-parse
/// HEAD`, run now), or "unknown" outside a git checkout.
inline std::string CurrentCommit() {
  std::string commit;
  if (std::FILE* git = popen("git rev-parse HEAD 2>/dev/null", "r")) {
    char buf[128];
    if (std::fgets(buf, sizeof(buf), git) != nullptr) commit = buf;
    pclose(git);
  }
  if (!commit.empty() && commit.back() == '\n') commit.pop_back();
  return commit.empty() ? "unknown" : commit;
}

/// Opens a BENCH_*.json for writing and emits its head: the opening brace,
/// the benchmark name, and the provenance every record carries — the build
/// type this binary was compiled in (GENCOMPACT_BUILD_TYPE, set by
/// bench/CMakeLists.txt) and the commit it ran at. The caller writes the
/// remaining fields and the closing brace. Null, after a warning, when the
/// file cannot be opened.
inline std::FILE* OpenBenchJson(const char* path, const char* benchmark) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::printf("WARNING: could not open %s for writing\n", path);
    return nullptr;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"%s\",\n", benchmark);
  std::fprintf(f, "  \"build_type\": \"%s\",\n", GENCOMPACT_BUILD_TYPE);
  std::fprintf(f, "  \"commit\": \"%s\",\n", CurrentCommit().c_str());
  return f;
}

/// Outcome of planning + executing one target query with one strategy.
struct StrategyOutcome {
  bool feasible = false;
  bool rejected_at_source = false;  ///< naive baseline hitting enforcement
  size_t source_queries = 0;
  uint64_t rows_transferred = 0;
  size_t result_rows = 0;
  double estimated_cost = 0.0;
  double true_cost = 0.0;
  double planning_micros = 0.0;
};

inline StrategyOutcome RunStrategy(Strategy strategy, SourceHandle* handle,
                                   Source* source, const ConditionPtr& cond,
                                   const AttributeSet& attrs) {
  StrategyOutcome outcome;
  const std::unique_ptr<PlannerStrategy> planner = MakePlanner(strategy, handle);
  const auto start = std::chrono::steady_clock::now();
  const Result<PlanPtr> plan = planner->Plan(cond, attrs);
  outcome.planning_micros =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - start)
          .count();
  if (!plan.ok()) return outcome;
  Executor executor(source);
  const Result<RowSet> rows = executor.Execute(**plan);
  if (!rows.ok()) {
    outcome.rejected_at_source = true;
    return outcome;
  }
  outcome.feasible = true;
  outcome.source_queries = executor.stats().source_queries;
  outcome.rows_transferred = executor.stats().rows_transferred;
  outcome.result_rows = rows->size();
  outcome.estimated_cost = handle->cost_model().PlanCost(**plan);
  const SourceDescription& description = handle->description();
  outcome.true_cost =
      executor.stats().TrueCost(description.k1(), description.k2());
  return outcome;
}

}  // namespace gencompact::bench

#endif  // GENCOMPACT_BENCH_BENCH_UTIL_H_
