#include "planner/source_handle.h"

#include "planner/gen_compact.h"

namespace gencompact {

SourceHandle::SourceHandle(SourceDescription description, const Table* table,
                           bool apply_commutativity_closure, double mediator_k3)
    : SourceHandle(std::move(description), table, nullptr,
                   apply_commutativity_closure, mediator_k3) {}

SourceHandle::SourceHandle(SourceDescription description, const Table* table,
                           std::unique_ptr<CardinalityEstimator> estimator,
                           bool apply_commutativity_closure, double mediator_k3)
    : description_(apply_commutativity_closure
                       ? CommutativityClosure(description)
                       : std::move(description)),
      table_(table),
      stats_(table != nullptr ? TableStats::Compute(*table) : TableStats()),
      estimator_(std::move(estimator)) {
  if (estimator_ == nullptr) {
    estimator_ = std::make_unique<StatsCardinalityEstimator>(
        &description_.schema(), &stats_);
  }
  checker_ = std::make_unique<Checker>(&description_);
  plan_templates_ = std::make_unique<PlanTemplateCache>();
  cost_model_ = std::make_unique<CostModel>(
      description_.k1(), description_.k2(), estimator_.get(), mediator_k3);
  // The result bound shapes the k1 term (one per page, truncation-risk
  // inflation); bound 0 leaves the model exactly Equation 1.
  cost_model_->set_result_bound(description_.result_bound());
}

SourceHandle::~SourceHandle() = default;

}  // namespace gencompact
