#ifndef GENCOMPACT_COST_COST_MODEL_H_
#define GENCOMPACT_COST_COST_MODEL_H_

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>

#include "common/rng.h"
#include "cost/cardinality.h"
#include "plan/plan.h"
#include "plan/sub_query_key.h"
#include "ssdl/description.h"

namespace gencompact {

/// Health-derived cost penalty of one source: a multiplier ≥ 1 applied to
/// k1 (the per-query setup cost) so Choice resolution steers toward healthy
/// sources *before* they fail (re-planning stays as the backstop). Owned by
/// the catalog entry next to the breaker it is derived from; refreshed by
/// the mediator before planning, read lock-free on the planning hot path.
/// At the default multiplier of 1 the model is exactly Equation 1.
class HealthPenalty {
 public:
  double multiplier() const {
    return multiplier_.load(std::memory_order_relaxed);
  }
  void set_multiplier(double m) {
    multiplier_.store(m, std::memory_order_relaxed);
  }

 private:
  std::atomic<double> multiplier_{1.0};
};

/// The estimate of one source query SP(C, A, R).
struct SourceQueryEstimate {
  double rows = 0.0;  ///< EstimateResultRows
  double cost = 0.0;  ///< SourceQueryCost
};

/// The paper's cost model (Section 6.2, Equation 1):
///
///   cost(plan) = Σ over source queries sq of  k1 + k2·|result(sq)|
///
/// k1 and k2 are per-source constants (communication setup plus per-row
/// transfer/processing). An optional extension term `mediator_k3` charges
/// mediator postprocessing per input row (0 by default — exactly the paper's
/// model; non-zero values are used by the ablation benchmark).
class CostModel {
 public:
  /// `estimator` must outlive the model.
  CostModel(double k1, double k2, const CardinalityEstimator* estimator,
            double mediator_k3 = 0.0)
      : k1_(k1), k2_(k2), mediator_k3_(mediator_k3), estimator_(estimator) {}

  double k1() const { return k1_; }
  double k2() const { return k2_; }
  /// The mediator postprocessing charge per input row (0 = Equation 1).
  double mediator_k3() const { return mediator_k3_; }

  /// Attaches the source's health penalty; null (the default) keeps the
  /// model exactly Equation 1. The penalty object must outlive the model
  /// (both live on the catalog entry).
  void set_health_penalty(const HealthPenalty* penalty) {
    health_penalty_ = penalty;
  }
  const HealthPenalty* health_penalty() const { return health_penalty_; }

  /// k1 with the current health penalty applied — what planning pays per
  /// source query while the source is degraded.
  double effective_k1() const {
    return health_penalty_ != nullptr ? k1_ * health_penalty_->multiplier()
                                      : k1_;
  }

  /// Estimated result rows of SP(cond, ·, R) before projection.
  double EstimateRows(const ConditionNode& cond) const {
    return estimator_->EstimateRows(cond);
  }

  /// Estimated result rows of SP(cond, attrs, R) — deduplicated projection.
  double EstimateResultRows(const ConditionNode& cond,
                            const AttributeSet& attrs) const {
    return estimator_->EstimateResultRows(cond, attrs);
  }

  /// The source's result bound, copied from its description at registration.
  /// Default-constructed (bound 0 = unbounded) keeps the model exactly
  /// Equation 1.
  void set_result_bound(const ResultBound& bound) { result_bound_ = bound; }
  const ResultBound& result_bound() const { return result_bound_; }

  /// k1 multiplier charged to a non-paging bounded source query whose
  /// estimate exceeds the bound — the truncation-risk analogue of an open
  /// breaker's k1 penalty: Choice resolution steers toward
  /// alternatives that can answer exactly before the truncation happens.
  void set_truncation_risk_multiplier(double m) {
    truncation_risk_multiplier_ = m;
  }
  double truncation_risk_multiplier() const {
    return truncation_risk_multiplier_;
  }

  /// Cost of one source query: k1 + k2·estimated result rows (with k1
  /// inflated by the health penalty when one is attached and active).
  ///
  /// Against a result-bounded interface the k1 term changes shape once the
  /// estimate exceeds the bound (a fitting query is one plain call — exactly
  /// Equation 1, whatever the source declares):
  ///  - paging source: one k1 per page the loop will drive —
  ///    k1·ceil(est / page_size) — because each page is a full round trip;
  ///  - non-paging source: the whole query cost is inflated by the
  ///    truncation-risk multiplier, so a plan that would come back provably
  ///    partial loses ties against an unbounded (or refinable) alternative.
  /// With no bound declared this is exactly Equation 1.
  double SourceQueryCost(const ConditionNode& cond,
                         const AttributeSet& attrs) const {
    return SourceQueryCostOfRows(EstimateResultRows(cond, attrs));
  }

  /// Result rows and SourceQueryCost of SP(cond, attrs, R).
  SourceQueryEstimate EstimateSourceQuery(const ConditionNode& cond,
                                          const AttributeSet& attrs) const {
    const double rows = EstimateResultRows(cond, attrs);
    return {rows, SourceQueryCostOfRows(rows)};
  }

  /// Cost of a plan. Choice nodes cost the minimum over their children
  /// (the cost module "resolves" the Choice operator, Section 5.3). Each
  /// plan node is costed once, however often a Choice DAG shares it, and
  /// each distinct source query is estimated once.
  double PlanCost(const PlanNode& plan) const;

  /// Replaces every Choice node by its first cheapest child, returning a
  /// resolved (directly executable) plan. One memoized walk: a sub-space
  /// shared in the DAG is resolved once and stays shared.
  PlanPtr ResolveChoices(const PlanPtr& plan) const;

  /// Like ResolveChoices, but refuses every alternative that contains a
  /// sub-query in `avoid`: each Choice picks its cheapest child that can be
  /// resolved without touching the avoid-set. Returns nullptr when no such
  /// resolution exists — the plan space cannot route around the avoided
  /// sub-queries. This is the fault-tolerant re-planning primitive: the
  /// Choice plan space (EPG, Section 5.3) already enumerates the
  /// alternatives; avoiding a failed SP(C, A, R) is a constrained pick.
  PlanPtr ResolveChoicesAvoiding(const PlanPtr& plan,
                                 const SubQueryAvoidSet& avoid) const;

  /// Replaces every Choice node by a *uniformly random* feasible child —
  /// the differential harness's probe into the Choice plan space: any
  /// random resolution must produce the same answer rows as the optimal
  /// one. Preserves node sharing like ResolveChoices.
  PlanPtr ResolveChoicesRandom(const PlanPtr& plan, Rng* rng) const;

 private:
  /// SourceQueryCost of a query estimated at `est` result rows.
  double SourceQueryCostOfRows(double est) const {
    if (!result_bound_.bounded() ||
        est <= static_cast<double>(result_bound_.result_bound)) {
      return effective_k1() + k2_ * est;
    }
    if (result_bound_.supports_paging) {
      const double page =
          static_cast<double>(result_bound_.EffectivePageSize());
      double pages = std::ceil(std::max(est, 1.0) / page);
      if (result_bound_.max_accesses > 0) {
        pages = std::min(pages,
                         static_cast<double>(result_bound_.max_accesses));
      }
      return effective_k1() * pages + k2_ * est;
    }
    return (effective_k1() + k2_ * est) * truncation_risk_multiplier_;
  }

  /// One memoized walk over a (possibly Choice-bearing) plan DAG, for
  /// PlanCost and both ResolveChoices variants; see cost_model.cc.
  class Walk;

  double k1_;
  double k2_;
  double mediator_k3_;
  const CardinalityEstimator* estimator_;
  const HealthPenalty* health_penalty_ = nullptr;
  ResultBound result_bound_;  // bound 0 = unbounded (exactly Equation 1)
  double truncation_risk_multiplier_ = 8.0;
};

}  // namespace gencompact

#endif  // GENCOMPACT_COST_COST_MODEL_H_
