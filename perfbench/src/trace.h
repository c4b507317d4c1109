#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// Spans recorded from outside the mediator: the traced run mirrors
// Mediator::Query through the layers' public entry points and records one
// span per call. Spans stay in memory and are written out when the run ends.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mediator/mediator.h"
#include "oracle.h"
#include "planner/plan_cache.h"

namespace perfbench {

struct Span {
  const char* name = "";
  int parent = -1;  ///< index into the span list; -1 for a query root
  size_t query = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t cpu_ns = 0;  ///< thread CPU time spent inside the span
  /// Derived spans were not timed in line: a replay of a call the program
  /// made internally, or a difference of two measurements.
  bool derived = false;
  int64_t duration_ns() const { return end_ns - start_ns; }
};

class Tracer {
 public:
  void set_query(size_t query) { query_ = query; }
  int Begin(const char* name, int parent, bool derived = false);
  void End(int span);
  /// A derived span of the given duration, anchored at `parent`'s start.
  int AddDerived(const char* name, int parent, int64_t duration_ns);

  const std::vector<Span>& spans() const { return spans_; }
  const Span& span(int index) const { return spans_[static_cast<size_t>(index)]; }

  /// Per span name: summed duration and summed self time (duration minus
  /// the part covered by child spans; the sum is clamped at zero), over
  /// every span from index `first` on.
  struct Totals {
    int64_t duration_ns = 0;
    int64_t self_ns = 0;
    size_t count = 0;
  };
  std::map<std::string, Totals> Aggregate(size_t first) const;

  /// Writes one JSON object per span.
  bool WriteJsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  size_t query_ = 0;
};

/// Monotonic wall clock and this thread's CPU clock, in nanoseconds.
int64_t WallNs();
int64_t ThreadCpuNs();

/// Counters read around one mirrored query (outside its root span).
struct LayerCounts {
  uint64_t check_calls = 0;
  uint64_t check_memo_hits = 0;
  uint64_t earley_items = 0;
  uint64_t source_calls = 0;
  uint64_t source_answers = 0;
  uint64_t rows_returned = 0;
  uint64_t rows_scanned = 0;
  uint64_t rejections = 0;
  LayerCounts& operator+=(const LayerCounts& other);
};

struct MirrorOutcome {
  bool ok = false;
  std::string error;
  AnswerDigest digest;
  size_t source_queries = 0;
  /// Two-source joins are traced as the Mediator::Query call itself; its
  /// result is kept for the cost metrics.
  bool is_mediator_call = false;
  double estimated_cost = 0.0;
  double true_cost = 0.0;
  uint64_t dp_subsets = 0;
  uint64_t bind_edges = 0;
  LayerCounts counts;
  int root = -1;
  /// Single-source plan-cache misses: the planner.plan span, and the
  /// Earley items of that plan and of the same plan repeated on the same
  /// handle (fewer: Checks of conditions still alive hit the memo).
  int plan_span = -1;
  int64_t replan_ns = 0;
  uint64_t plan_items = 0;
  uint64_t replan_items = 0;
};

/// Runs a query the way Mediator::Query does, one public entry point at a
/// time, with a span around each: ParseSql, SimplifyCondition, the plan
/// cache, MakePlanner(kGenCompact)->Plan, ValidatePlanFor, Executor::Execute
/// (single-source); ParseFederatedSql and FederationProcessor::Execute/Plan
/// (three or more sources); Mediator::Query itself for two-source joins.
/// After the root span closes it attributes time inside the opaque calls:
/// the same condition is planned again on the same handle, where Checks of
/// conditions that are still alive hit the memo (the caller turns the two
/// plan times and Earley item counts into Check time), each source query is
/// replayed through Source::Execute and ScanTable, and blocking time (wall
/// minus thread CPU) is taken as source round-trip wait.
class Mirror {
 public:
  Mirror(gencompact::Mediator* mediator, Tracer* tracer,
         const std::vector<std::string>& sources,
         const gencompact::Mediator::Options& options);

  MirrorOutcome Run(const std::string& sql);

 private:
  MirrorOutcome RunSingle(const std::string& sql, int root);
  MirrorOutcome RunFederated(const std::string& sql, int root);
  MirrorOutcome RunJoin(const std::string& sql, int root);
  LayerCounts ReadCounts() const;
  void AddWait(int span);

  gencompact::Mediator* mediator_;
  Tracer* tracer_;
  std::vector<gencompact::CatalogEntry*> entries_;
  gencompact::PlanCache cache_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
