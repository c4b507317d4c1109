#ifndef GENCOMPACT_MEDIATOR_FEDERATION_H_
#define GENCOMPACT_MEDIATOR_FEDERATION_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "exec/event_loop.h"
#include "exec/executor.h"
#include "mediator/catalog.h"
#include "plan/plan.h"
#include "planner/join_enum.h"

namespace gencompact {

/// The complex-query extension sketched by the paper's Section 1 / [2]:
/// selection queries are "the building blocks of more complex queries".
/// Every JOIN, two sources or more, is planned and executed here, with
/// GenCompact planning each per-source select-project building block.
/// Attribute references are dot-qualified: "cars.make", "dealers.city".

/// One equi-join column pair, qualified.
struct JoinKey {
  std::string left;   ///< "source.attr"
  std::string right;  ///< "othersource.attr"
};

/// cond ∧ (key = v1 or key = v2 or ...) — the bound value-list query shape
/// a bind-join pushes to the non-driving source (exactly what many web
/// forms accept). Shared by bind-edge execution and its feasibility probes.
ConditionPtr BindBatchCondition(const ConditionPtr& cond,
                                const std::string& key_attr,
                                const std::vector<Value>& values);

/// An N-source conjunctive query over a query graph: relations (each a
/// capability-limited Internet source), equi-join edges from the ON
/// clauses, and a condition over qualified attributes that splits into
/// per-relation pushdowns plus a multi-relation residual.
struct FederatedQuery {
  std::vector<std::string> sources;  ///< FROM order; ≥ 2, distinct
  std::vector<JoinKey> keys;         ///< qualified "src.attr" pairs
  ConditionPtr condition;            ///< qualified; may be null/True
  std::vector<std::string> select;   ///< qualified; empty = all attributes
};

struct FederationOptions {
  /// Distinct driving-side join values per bound value-list batch. Each
  /// batch is its own source query; all batches of an edge are in flight
  /// together once the driving side has landed, so the batch count sets the
  /// edge's source-query cost, not its latency.
  size_t bind_batch_size = 8;
  /// Join-order search mode and DP size threshold.
  JoinEnumerator::Options enumerate;
  /// Force the edge method of a two-relation query instead of costing both
  /// (E9 and the nested-loop join oracle): kBind marks relation 1's
  /// independent fetch infeasible so the enumerator must bind it;
  /// kIndependent strips every bind edge.
  std::optional<EdgeMethod> force_method;
  /// Per-relation executor discipline (retry/clock/hedge/degrade/
  /// partial_pages); breaker and latency tracker are overridden per
  /// relation from its catalog entry. Retries (exec.retry.max_attempts > 1)
  /// also arm the avoid-set replan: once a relation's fetch has failed
  /// retryably after its retries, and unless exec.deadline has passed or
  /// failed it (see RecoveryFits), its independent fetch is marked
  /// infeasible and the join orders are enumerated again, once, so the
  /// alternate tree reaches the failed relation through a bind edge.
  ExecOptions exec;
  /// Scan-offload pool for the per-relation executors; may be null.
  ThreadPool* pool = nullptr;
  /// Schema-compatible replica candidates per relation (index-aligned with
  /// the entries; may be shorter or empty = no failover). When a relation's
  /// fetch — its independent leaf or its bind batches — fails retryably, it
  /// is re-planned against each alternate's own description and re-run
  /// there, one alternate at a time, skipping open-circuit ones and stopping
  /// once exec.deadline has passed. Failover runs before the avoid-set
  /// replan.
  std::vector<std::vector<CatalogEntry*>> alternates;
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
  size_t replans = 0;  ///< alternate join order adopted after a leaf failure
  size_t failovers = 0;  ///< fetches re-run against an alternate source
  /// Equation-1 cost with actual row counts, summed over every fetch
  /// attempt (each at its own source's k1/k2).
  double true_cost = 0.0;
  /// Completeness composition: markers from the fetch attempt that answered
  /// each relation, in the round that answered.
  std::vector<TruncationRecord> truncations;
  std::vector<std::string> dropped_sub_queries;
};

/// Plans and executes federated queries over two or more sources:
/// capability-sensitive pushdown per relation (GenCompact per leaf), DP
/// join-order enumeration over the query graph with bind-join vs
/// independent-fetch per edge, and execution of the chosen tree through
/// per-relation Executors so retries, breakers, deadlines, hedging
/// suppression, paging loops, and truncation markers all compose. Entries
/// must align with FederatedQuery::sources by index.
///
/// The chosen tree runs as continuations on one EventLoop: every leaf fetch
/// and every bind batch is one Executor::ExecuteAsync there. Both sides of
/// an independent edge start together; once a bind edge's driving side
/// lands, all of its batches start at once. A join's latency is therefore
/// its tree depth in round trips, not its source-query count. Results fold
/// in walk order — batch rows in batch order, the left input before the
/// right — so the answer, its row order, the statistics and the markers do
/// not depend on the order in which fetches land. Walk order — the left
/// subtree, then the right subtree or the bound relation — also ranks
/// failures: a failure stops every fetch, alternate and edge after it in
/// walk order, while fetches already sent land and their cost counts, and
/// the reported error is the one earliest in walk order.
///
/// One chain, Begin, driven two ways as for Executor: ExecuteAsync() runs
/// it on the shared loop given at construction and hands the answer to a
/// callback there; Execute() runs it under AwaitOnLoop (exec/event_loop.h),
/// the one blocking wait, on a private manual loop pumped on the calling
/// thread (under a FakeClock every wait elapses in virtual time).
class FederationProcessor {
 public:
  /// `loop`: the shared loop ExecuteAsync runs on; may be null when only
  /// Execute is used.
  FederationProcessor(std::vector<CatalogEntry*> entries,
                      FederationOptions options = {},
                      EventLoop* loop = nullptr);

  /// Full joined schema: every relation's attributes, dot-qualified, in
  /// FROM order.
  Result<Schema> OutputSchema(const FederatedQuery& query) const;

  /// Splits the condition, plans every leaf, derives the cost graph, and
  /// enumerates join orders.
  Result<FederationPlanOutcome> Plan(const FederatedQuery& query);

  /// Plans + executes on a private loop pumped on the calling thread, and
  /// returns joined rows projected to `query.select`.
  Result<RowSet> Execute(const FederatedQuery& query);

  /// Non-blocking execution on the shared loop (required): planning and the
  /// walk both run on the loop thread, and `done` fires there. The caller
  /// keeps this processor alive until `done` fires; stats() is valid from
  /// inside `done` onward.
  void ExecuteAsync(FederatedQuery query,
                    std::function<void(Result<RowSet>)> done);

  const FederationExecStats& stats() const { return stats_; }

 private:
  struct Prepared;
  struct Intermediate;
  struct Execution;
  struct Round;
  struct Landed;
  struct BindKey;
  struct Attempt;
  using RoundPtr = std::shared_ptr<Round>;
  using LandedCb = std::function<void(Landed)>;

  Result<Prepared> PrepareQuery(const FederatedQuery& query) const;
  Result<FederationPlanOutcome> PlanPrepared(const Prepared& prepared,
                                             const std::vector<bool>& avoid);

  // The walk (loop-confined; see federation.cc).
  void Begin(FederatedQuery query, EventLoop* loop,
             std::function<void(Result<RowSet>)> done);
  void StartRound(const std::shared_ptr<Execution>& execution);
  void EndRound(const RoundPtr& round, Landed root);
  void Walk(const RoundPtr& round, uint64_t set, size_t position,
            LandedCb cb);
  void FetchRelation(const RoundPtr& round, size_t position, int relation,
                     PlanPtr leaf_plan, std::shared_ptr<const BindKey> bind,
                     LandedCb cb);
  void Failover(const RoundPtr& round, size_t position, int relation,
                std::shared_ptr<const BindKey> bind, size_t next,
                Landed landed, LandedCb cb);
  void FetchFrom(const RoundPtr& round, CatalogEntry* entry, int relation,
                 PlanPtr leaf_plan, const std::shared_ptr<const BindKey>& bind,
                 LandedCb cb);
  Landed JoinSides(const Round& round, size_t position, Landed left,
                   Landed right) const;
  Intermediate HashJoin(const Prepared& prepared, const Intermediate& left,
                        const Intermediate& right) const;

  std::vector<CatalogEntry*> entries_;
  FederationOptions options_;
  EventLoop* loop_;
  FederationExecStats stats_;
};

}  // namespace gencompact

#endif  // GENCOMPACT_MEDIATOR_FEDERATION_H_
