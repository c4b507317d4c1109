#ifndef GENCOMPACT_MEDIATOR_JOIN_H_
#define GENCOMPACT_MEDIATOR_JOIN_H_

#include <chrono>
#include <optional>
#include <string>
#include <vector>

#include "exec/executor.h"
#include "mediator/catalog.h"
#include "plan/plan.h"

namespace gencompact {

/// The complex-query extension sketched by the paper's Section 1 / [2]:
/// selection queries are "the building blocks of more complex queries".
/// This module plans and executes two-source equi-joins where each side is
/// a capability-limited Internet source, using GenCompact for every
/// per-source select-project building block.
///
/// Attribute references are dot-qualified: "cars.make", "dealers.city".

/// One equi-join column pair, qualified.
struct JoinKey {
  std::string left;   ///< "leftsource.attr"
  std::string right;  ///< "rightsource.attr"
};

/// A two-source join target query.
struct JoinQuery {
  std::string left_source;
  std::string right_source;
  std::vector<JoinKey> keys;          ///< at least one
  ConditionPtr condition;             ///< over qualified attrs; may be True
  std::vector<std::string> select;    ///< qualified; empty = all attributes
};

/// How the right side is evaluated.
enum class JoinMethod {
  /// Plan and execute both sides independently; hash-join at the mediator.
  kIndependent,
  /// Execute the left side first, then query the right side once per batch
  /// of distinct left join values (a bind-join): the join condition is
  /// pushed to the right source as a disjunction of equalities — exactly
  /// the value-list shape many web forms accept.
  kBind,
};

const char* JoinMethodName(JoinMethod method);

/// cond ∧ (key = v1 or key = v2 or ...) — the bound value-list query shape
/// a bind-join pushes to the non-driving source (exactly what many web
/// forms accept). Shared by the two-source processor, the federation
/// processor's bind edges, and their feasibility probes.
ConditionPtr BindBatchCondition(const ConditionPtr& cond,
                                const std::string& key_attr,
                                const std::vector<Value>& values);

struct JoinPlanOutcome {
  JoinMethod method = JoinMethod::kIndependent;
  PlanPtr left_plan;
  /// kIndependent: the complete right-side plan. kBind: right-side plans
  /// are generated per value batch during execution.
  PlanPtr right_plan;
  /// Residual condition evaluated at the mediator on joined rows (True if
  /// none).
  ConditionPtr residual;
  double estimated_cost = 0.0;
};

struct JoinExecStats {
  /// The plan Execute ran (its estimate and left-side plan are what the
  /// mediator reports).
  JoinPlanOutcome plan;
  ExecStats left;
  ExecStats right;  ///< accumulated over every right-side attempt (failover)
  size_t bind_batches = 0;
  size_t joined_rows = 0;
  /// Completeness composition: markers from both sides' executors. A
  /// truncated side shrinks the join silently unless these surface — the
  /// mediator folds them into QueryResult::completeness.
  std::vector<TruncationRecord> truncations;
  std::vector<std::string> dropped_sub_queries;
  /// Alternate sources tried after the primary right side failed retryably.
  size_t right_failovers = 0;
  /// The source that actually answered the right side (the primary unless a
  /// failover succeeded).
  std::string right_source_used;
};

/// Options for JoinProcessor.
struct JoinOptions {
  /// Distinct left-side join values per bind batch (web forms limit list
  /// lengths).
  size_t bind_batch_size = 8;
  /// Batch width of the data plane (0 = the row-at-a-time reference path).
  /// > 0 keeps columnar batches through the join boundary: side executors
  /// run batched, bind batches accumulate by in-place merge (reusing cached
  /// row hashes), and the mediator hash join builds/probes on folded key
  /// hashes, composing joined-row hashes from the cached side hashes
  /// instead of re-hashing payloads. Results are value-identical to the
  /// row path.
  size_t batch_width = 0;
  /// Whole-join deadline (0 = none). The left side runs with its per-sub-query
  /// deadline capped to this budget; the right side inherits whatever budget
  /// remains once the left completes — and when nothing remains it is failed
  /// with kDeadlineExceeded *before* planning, so zero right-side source
  /// calls are made for an already-doomed join.
  std::chrono::microseconds deadline{0};
  /// Clock the deadline is measured on (null = the real clock). The mediator
  /// injects its own clock so FakeClock tests drive join deadlines.
  Clock* clock = nullptr;
  /// Retry/backoff policy applied to both sides' executors.
  RetryPolicy retry;
  /// Consider the bind-join method at all.
  bool enable_bind = true;
  /// Force a method instead of costing both (for tests/benchmarks).
  std::optional<JoinMethod> force_method;
  /// Replica candidates for the right (non-driving) side: when its fetches
  /// fail retryably, the join re-plans and re-runs that side against each
  /// alternate in turn (skipping open-circuit ones). The mediator populates
  /// this with schema-compatible catalog entries when join failover is
  /// enabled; empty (the default) = no failover.
  std::vector<CatalogEntry*> right_alternates;
};

/// Plans and executes two-source joins against catalog entries.
class JoinProcessor {
 public:
  using Options = JoinOptions;

  JoinProcessor(CatalogEntry* left, CatalogEntry* right, Options options = {})
      : left_(left), right_(right), options_(options) {}

  /// Output schema of the join: left attributes then right attributes, all
  /// dot-qualified.
  Result<Schema> OutputSchema(const JoinQuery& query) const;

  /// Splits the condition, plans both sides, and picks the cheaper method.
  Result<JoinPlanOutcome> Plan(const JoinQuery& query);

  /// Plans + executes; returns joined rows projected to `query.select`.
  Result<RowSet> Execute(const JoinQuery& query);

  const JoinExecStats& stats() const { return stats_; }

 private:
  struct SplitCondition {
    ConditionPtr left;      // unqualified, over the left schema
    ConditionPtr right;     // unqualified, over the right schema
    ConditionPtr residual;  // qualified, over the join schema
  };
  Result<SplitCondition> Split(const JoinQuery& query) const;

  CatalogEntry* left_;
  CatalogEntry* right_;
  Options options_;
  JoinExecStats stats_;
};

}  // namespace gencompact

#endif  // GENCOMPACT_MEDIATOR_JOIN_H_
