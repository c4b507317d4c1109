#ifndef GENCOMPACT_MEDIATOR_WRAPPER_H_
#define GENCOMPACT_MEDIATOR_WRAPPER_H_

#include <memory>
#include <string>

#include "exec/executor.h"
#include "planner/gen_compact.h"

namespace gencompact {

/// A generic-relational wrapper around one limited source (Section 2: "if
/// wrappers are to provide generic relational capabilities for Internet
/// sources, then they need to implement a scheme like the one we describe").
///
/// A Wrapper accepts ANY select-project query — arbitrary condition
/// expression, any projection — and answers it by:
///   1. simplifying the condition (unsatisfiable conditions answer with the
///      empty set without contacting the source);
///   2. planning with GenCompact against the source's SSDL description
///      (safe combination mode, so answers are exact);
///   3. executing the plan through the capability-enforcing source, whose
///      scans run on the table's column mirror (exec/scan.h).
///
/// kNoFeasiblePlan is returned only when the source's capabilities are
/// genuinely insufficient (e.g. no download and no matching form).
class Wrapper {
 public:
  /// Takes ownership of nothing: `table` must outlive the wrapper.
  Wrapper(SourceDescription description, const Table* table,
          GenCompactOptions options = {});

  const Schema& schema() const { return handle_.schema(); }

  /// Answers SP(condition, attrs, R).
  Result<RowSet> Query(const ConditionPtr& condition, const AttributeSet& attrs);

  /// Text front end: condition text (ParseCondition grammar) + attribute
  /// names (empty = all attributes).
  Result<RowSet> Query(const std::string& condition_text,
                       const std::vector<std::string>& attr_names);

  struct Stats {
    size_t queries = 0;
    size_t answered = 0;
    size_t answered_without_source = 0;  ///< simplified to FALSE
    size_t infeasible = 0;
    size_t source_queries = 0;
    uint64_t rows_transferred = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  SourceHandle handle_;
  Source source_;
  GenCompactOptions options_;
  Stats stats_;
};

}  // namespace gencompact

#endif  // GENCOMPACT_MEDIATOR_WRAPPER_H_
