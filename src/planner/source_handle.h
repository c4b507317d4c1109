#ifndef GENCOMPACT_PLANNER_SOURCE_HANDLE_H_
#define GENCOMPACT_PLANNER_SOURCE_HANDLE_H_

#include <memory>

#include "cost/cost_model.h"
#include "ssdl/check.h"
#include "ssdl/closure.h"
#include "storage/table.h"
#include "storage/table_stats.h"

namespace gencompact {

class PlanTemplateCache;

/// Everything the planners need to plan against one source: the (optionally
/// commutativity-closed) SSDL description with its Checker, table statistics,
/// the per-source cost model, and GenCompact's plan templates (one per query
/// shape, see PlanTemplateCache) next to the Checker whose answers they
/// record. Owns all of it, so planners and baselines just take a
/// SourceHandle*. Templates, like the Checker's memo, live as long as the
/// handle: a description reload builds a new handle.
class SourceHandle {
 public:
  /// `table` must outlive the handle; statistics are computed here.
  /// When `apply_commutativity_closure` is set (the default — GenCompact's
  /// Section 6.1 description rewriting), the stored description is the
  /// closure of `description`.
  SourceHandle(SourceDescription description, const Table* table,
               bool apply_commutativity_closure = true,
               double mediator_k3 = 0.0);

  /// Variant with an injected cardinality estimator (tests / what-if).
  SourceHandle(SourceDescription description, const Table* table,
               std::unique_ptr<CardinalityEstimator> estimator,
               bool apply_commutativity_closure = true,
               double mediator_k3 = 0.0);

  ~SourceHandle();
  SourceHandle(const SourceHandle&) = delete;
  SourceHandle& operator=(const SourceHandle&) = delete;

  const SourceDescription& description() const { return description_; }
  const Schema& schema() const { return description_.schema(); }
  const Table* table() const { return table_; }
  const TableStats& stats() const { return stats_; }

  Checker* checker() { return checker_.get(); }
  PlanTemplateCache* plan_templates() { return plan_templates_.get(); }
  const CostModel& cost_model() const { return *cost_model_; }

  /// Mutable access for post-construction wiring (the catalog entry
  /// attaches its HealthPenalty here); not for changing k1/k2 mid-flight.
  CostModel* mutable_cost_model() { return cost_model_.get(); }

 private:
  SourceDescription description_;
  const Table* table_;
  TableStats stats_;
  std::unique_ptr<CardinalityEstimator> estimator_;
  std::unique_ptr<Checker> checker_;
  std::unique_ptr<PlanTemplateCache> plan_templates_;
  std::unique_ptr<CostModel> cost_model_;
};

}  // namespace gencompact

#endif  // GENCOMPACT_PLANNER_SOURCE_HANDLE_H_
