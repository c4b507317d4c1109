#include "planner/gen_compact.h"

#include "expr/canonical.h"
#include "planner/epg.h"

namespace gencompact {
namespace {

/// The canonical CTs GenCompact plans over: the distributive closure when
/// rewrites are enabled, the canonical condition alone otherwise.
std::vector<ConditionPtr> ReducedCts(const ConditionPtr& condition,
                                     const GenCompactOptions& options,
                                     bool* budget_exhausted) {
  const ConditionPtr canonical = Canonicalize(condition);
  if (!options.distributive_rewrites) return {canonical};
  RewriteOptions rewrite_options;
  rewrite_options.rules = RewriteRuleSet::DistributiveOnly();
  rewrite_options.max_cts = options.max_cts;
  rewrite_options.canonicalize = true;
  RewriteResult rewrites = GenerateRewritings(canonical, rewrite_options);
  if (budget_exhausted != nullptr) {
    *budget_exhausted = rewrites.budget_exhausted;
  }
  return std::move(rewrites.cts);
}

}  // namespace

Result<PlanPtr> GenCompactPlanner::Plan(const ConditionPtr& condition,
                                        const AttributeSet& attrs) {
  stats_ = RunStats();

  const std::vector<ConditionPtr> cts =
      ReducedCts(condition, options_, &stats_.rewrite_budget_exhausted);
  stats_.num_cts = cts.size();

  // One Ipg for every CT: its memos carry across the CTs, which share most
  // of their sub-conditions.
  Ipg ipg(source_, options_.ipg);
  PlanPtr best;
  double best_cost = 0;
  for (const ConditionPtr& ct : cts) {
    PlanPtr plan = ipg.Plan(ct, attrs);
    if (plan == nullptr) continue;
    const double cost = ipg.Cost(*plan);
    if (best == nullptr || cost < best_cost) {
      best = std::move(plan);
      best_cost = cost;
    }
  }
  stats_.ipg = ipg.stats();
  stats_.best_cost = best_cost;

  if (best == nullptr) {
    return Status::NoFeasiblePlan("GenCompact: no feasible plan for SP(" +
                                  condition->ToString() + ")");
  }
  return best;
}

Result<PlanPtr> GenCompactPlanner::PlanAvoiding(const ConditionPtr& condition,
                                                const AttributeSet& attrs,
                                                const SubQueryAvoidSet& avoid) {
  if (avoid.empty()) return Plan(condition, attrs);
  const std::vector<ConditionPtr> cts =
      ReducedCts(condition, options_, nullptr);
  Epg epg(source_);
  const CostModel& cost_model = source_->cost_model();
  PlanPtr best;
  double best_cost = 0;
  for (const ConditionPtr& ct : cts) {
    const PlanPtr space = epg.Generate(ct, attrs);
    if (space == nullptr) continue;
    PlanPtr resolved = cost_model.ResolveChoicesAvoiding(space, avoid);
    if (resolved == nullptr) continue;
    const double cost = cost_model.PlanCost(*resolved);
    if (best == nullptr || cost < best_cost) {
      best = std::move(resolved);
      best_cost = cost;
    }
  }
  if (best == nullptr) {
    return Status::NoFeasiblePlan(
        "GenCompact: no feasible plan for SP(" + condition->ToString() +
        ") avoiding " + std::to_string(avoid.size()) +
        " failed sub-quer" + (avoid.size() == 1 ? "y" : "ies"));
  }
  return best;
}

}  // namespace gencompact
