#ifndef GENCOMPACT_MEDIATOR_FEDERATION_H_
#define GENCOMPACT_MEDIATOR_FEDERATION_H_

#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "exec/executor.h"
#include "mediator/catalog.h"
#include "mediator/join.h"
#include "plan/plan.h"
#include "planner/join_enum.h"

namespace gencompact {

/// An N-source conjunctive query over a query graph: relations (each a
/// capability-limited Internet source), equi-join edges from the ON
/// clauses, and a condition over qualified attributes that splits into
/// per-relation pushdowns plus a multi-relation residual. Generalizes
/// JoinQuery from exactly two sources to arbitrary connected graphs.
struct FederatedQuery {
  std::vector<std::string> sources;  ///< FROM order; ≥ 2, distinct
  std::vector<JoinKey> keys;         ///< qualified "src.attr" pairs
  ConditionPtr condition;            ///< qualified; may be null/True
  std::vector<std::string> select;   ///< qualified; empty = all attributes
};

struct FederationOptions {
  /// Distinct driving-side join values per bound value-list batch.
  size_t bind_batch_size = 8;
  /// Consider bind-join edges at all.
  bool enable_bind = true;
  /// Join-order search mode and DP size threshold.
  JoinEnumerator::Options enumerate;
  /// Force the per-edge method on two-relation queries (parity tests
  /// against JoinProcessor::force_method): kBind marks relation 1's
  /// independent fetch infeasible so the enumerator must bind it;
  /// kIndependent strips every bind edge.
  std::optional<EdgeMethod> force_method;
  /// On a retryable leaf failure, mark that relation's independent fetch
  /// infeasible and re-enumerate — the avoid-set analogue at the join-order
  /// level: the alternate tree reaches the failed relation through a bind
  /// edge (or not at all). 0 disables.
  size_t max_replans = 0;
  /// Per-relation executor discipline (retry/clock/hedge/batch_width/
  /// degrade/partial_pages); breaker and latency tracker are overridden per
  /// relation from its catalog entry.
  ExecOptions exec;
  /// Worker pool for the per-relation executors; may be null.
  ThreadPool* pool = nullptr;
};

struct FederationPlanOutcome {
  /// The derived cost-level graph (the oracle tests enumerate it too).
  JoinGraph graph;
  /// PlanTable + best tree + enumeration counters.
  JoinEnumerator::Result enumeration;
  /// Multi-relation conjuncts, evaluated at the join root.
  ConditionPtr residual;
  /// Validated per-relation independent plans (null = infeasible unbound —
  /// the relation must be reached via a bind edge).
  std::vector<PlanPtr> leaf_plans;
  double estimated_cost = 0.0;
  /// Rendering of the chosen tree, e.g. "((cars ind dealers) bind reviews)".
  std::string tree;
};

struct FederationExecStats {
  /// The plan of the round that answered (its estimate and leaf plans are
  /// what the mediator reports).
  FederationPlanOutcome plan;
  /// Aggregated over every per-relation executor pass.
  ExecStats exec;
  size_t bind_batches = 0;
  /// Rows surviving the residual at the join root.
  size_t joined_rows = 0;
  // Enumeration counters (the mediator's `join` stats block).
  size_t plans_enumerated = 0;
  size_t dp_subsets = 0;
  size_t bind_edges = 0;
  size_t independent_edges = 0;
  bool used_greedy = false;
  size_t replans = 0;  ///< alternate join orders adopted after leaf failures
  /// Equation-1 cost with actual row counts, summed per relation.
  double true_cost = 0.0;
  /// Completeness composition: markers from every relation's executor.
  std::vector<TruncationRecord> truncations;
  std::vector<std::string> dropped_sub_queries;
};

/// Plans and executes N-source federated queries: capability-sensitive
/// pushdown per relation (GenCompact per leaf), DP join-order enumeration
/// over the query graph with bind-join vs independent-fetch per edge, and
/// execution of the chosen tree through per-relation Executors so retries,
/// breakers, hedging suppression, paging loops, and truncation markers all
/// compose. Entries must align with FederatedQuery::sources by index.
class FederationProcessor {
 public:
  FederationProcessor(std::vector<CatalogEntry*> entries,
                      FederationOptions options = {});

  /// Full joined schema: every relation's attributes, dot-qualified, in
  /// FROM order.
  Result<Schema> OutputSchema(const FederatedQuery& query) const;

  /// Splits the condition, plans every leaf, derives the cost graph, and
  /// enumerates join orders.
  Result<FederationPlanOutcome> Plan(const FederatedQuery& query);

  /// Plans + executes; returns joined rows projected to `query.select`.
  Result<RowSet> Execute(const FederatedQuery& query);

  const FederationExecStats& stats() const { return stats_; }

 private:
  struct Prepared;
  struct Intermediate;

  Result<Prepared> PrepareQuery(const FederatedQuery& query) const;
  Result<FederationPlanOutcome> PlanPrepared(const Prepared& prepared,
                                             const std::vector<bool>& avoid);
  Result<Intermediate> ExecuteNode(const Prepared& prepared,
                                   const FederationPlanOutcome& outcome,
                                   uint64_t set, int* failed_relation);
  Result<RowSet> ExecuteLeaf(const PlanPtr& plan, int relation,
                             int* failed_relation);
  Intermediate HashJoin(const Prepared& prepared, const Intermediate& left,
                        const Intermediate& right) const;

  std::vector<CatalogEntry*> entries_;
  FederationOptions options_;
  FederationExecStats stats_;
};

}  // namespace gencompact

#endif  // GENCOMPACT_MEDIATOR_FEDERATION_H_
