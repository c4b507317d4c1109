#include "cost/cost_model.h"

#include <algorithm>
#include <unordered_map>

namespace gencompact {

/// One walk over a plan DAG that visits each node once and estimates each
/// distinct source query once. Per node it computes the cost (Equation 1
/// plus the k3 term), the output-row estimate the k3 term charges (only
/// when k3 > 0, so the paper's model never asks the estimator for it), and,
/// when resolving, the node with every Choice replaced by its first
/// cheapest child — or, avoiding, by its first cheapest child that touches
/// no avoided sub-query. A Choice costs its chosen child, so the cost of a
/// space equals the cost of its resolution, bit for bit.
class CostModel::Walk {
 public:
  struct Result {
    PlanPtr plan;           ///< the resolution (resolving walks only)
    double cost = 0.0;
    double rows = 0.0;      ///< OutputRows; 0 unless k3 > 0
    bool feasible = true;   ///< false: every resolution hits the avoid-set
  };

  Walk(const CostModel& model, bool resolve, const SubQueryAvoidSet* avoid)
      : model_(model), resolve_(resolve), avoid_(avoid) {}

  /// `ptr` is `plan`'s owning pointer, needed only by resolving walks.
  const Result& Visit(const PlanNode& plan, const PlanPtr* ptr) {
    const auto [it, inserted] = memo_nodes_.try_emplace(&plan);
    // References into an unordered_map stay valid across rehashing.
    Result& result = it->second;
    if (inserted) Compute(plan, ptr, &result);
    return result;
  }

 private:
  void Compute(const PlanNode& plan, const PlanPtr* ptr, Result* out) {
    const double k3 = model_.mediator_k3_;
    switch (plan.kind()) {
      case PlanNode::Kind::kSourceQuery: {
        if (avoid_ != nullptr &&
            avoid_->count(SubQueryKey(*plan.condition(), plan.attrs())) > 0) {
          out->feasible = false;
          return;
        }
        const auto [it, inserted] = estimates_.try_emplace(
            SubQueryKey(*plan.condition(), plan.attrs()));
        if (inserted) {
          it->second =
              model_.EstimateSourceQuery(*plan.condition(), plan.attrs());
        }
        const SourceQueryEstimate& est = it->second;
        out->cost = est.cost;
        out->rows = est.rows;
        if (resolve_) out->plan = *ptr;
        return;
      }
      case PlanNode::Kind::kMediatorSp: {
        const PlanPtr& child_ptr = plan.children().front();
        const Result& child = Visit(*child_ptr, &child_ptr);
        if (!child.feasible) {
          out->feasible = false;
          return;
        }
        out->cost = child.cost;
        if (k3 > 0) {
          out->cost += k3 * child.rows;
          out->rows =
              std::min(child.rows, model_.EstimateRows(*plan.condition()));
        }
        if (resolve_) {
          out->plan = child.plan == child_ptr
                          ? *ptr
                          : PlanNode::MediatorSp(plan.condition(),
                                                 plan.attrs(), child.plan);
        }
        return;
      }
      case PlanNode::Kind::kUnion:
      case PlanNode::Kind::kIntersect: {
        const bool is_union = plan.kind() == PlanNode::Kind::kUnion;
        double cost = 0;
        double rows = is_union ? 0 : -1;
        std::vector<PlanPtr> children;
        bool changed = false;
        for (const PlanPtr& child_ptr : plan.children()) {
          const Result& child = Visit(*child_ptr, &child_ptr);
          if (!child.feasible) {
            // Every child is required: one unavoidable child sinks this
            // subtree (a Choice above it may have other alternatives).
            out->feasible = false;
            return;
          }
          cost += child.cost;
          if (k3 > 0) {
            cost += k3 * child.rows;
            rows = is_union ? rows + child.rows
                            : (rows < 0 ? child.rows
                                        : std::min(rows, child.rows));
          }
          if (resolve_) {
            changed = changed || child.plan != child_ptr;
            children.push_back(child.plan);
          }
        }
        out->cost = cost;
        if (k3 > 0) out->rows = rows < 0 ? 0 : rows;
        if (resolve_) {
          out->plan = !changed ? *ptr
                      : is_union ? PlanNode::UnionOf(std::move(children))
                                 : PlanNode::IntersectOf(std::move(children));
        }
        return;
      }
      case PlanNode::Kind::kChoice: {
        // The first cheapest feasible child; its resolution is this node's.
        const Result* best = nullptr;
        for (const PlanPtr& child_ptr : plan.children()) {
          const Result& child = Visit(*child_ptr, &child_ptr);
          if (!child.feasible) continue;
          if (best == nullptr || child.cost < best->cost) best = &child;
        }
        if (best == nullptr) {
          out->feasible = false;
          return;
        }
        // Copy: `*out` is another element of the same map, and `*best`
        // stays valid while it is copied.
        *out = *best;
        return;
      }
    }
  }

  const CostModel& model_;
  const bool resolve_;
  const SubQueryAvoidSet* avoid_;
  std::unordered_map<SubQueryKey, SourceQueryEstimate, SubQueryKeyHash>
      estimates_;
  std::unordered_map<const PlanNode*, Result> memo_nodes_;
};

double CostModel::PlanCost(const PlanNode& plan) const {
  Walk walk(*this, /*resolve=*/false, nullptr);
  return walk.Visit(plan, nullptr).cost;
}

PlanPtr CostModel::ResolveChoices(const PlanPtr& plan) const {
  Walk walk(*this, /*resolve=*/true, nullptr);
  return walk.Visit(*plan, &plan).plan;
}

PlanPtr CostModel::ResolveChoicesRandom(const PlanPtr& plan, Rng* rng) const {
  switch (plan->kind()) {
    case PlanNode::Kind::kSourceQuery:
      return plan;
    case PlanNode::Kind::kMediatorSp: {
      PlanPtr child = ResolveChoicesRandom(plan->children().front(), rng);
      if (child == plan->children().front()) return plan;
      return PlanNode::MediatorSp(plan->condition(), plan->attrs(),
                                  std::move(child));
    }
    case PlanNode::Kind::kUnion:
    case PlanNode::Kind::kIntersect: {
      std::vector<PlanPtr> children;
      children.reserve(plan->children().size());
      bool changed = false;
      for (const PlanPtr& child : plan->children()) {
        PlanPtr resolved = ResolveChoicesRandom(child, rng);
        changed = changed || resolved != child;
        children.push_back(std::move(resolved));
      }
      if (!changed) return plan;
      return plan->kind() == PlanNode::Kind::kUnion
                 ? PlanNode::UnionOf(std::move(children))
                 : PlanNode::IntersectOf(std::move(children));
    }
    case PlanNode::Kind::kChoice: {
      const size_t pick = rng->NextIndex(plan->children().size());
      return ResolveChoicesRandom(plan->children()[pick], rng);
    }
  }
  return plan;
}

PlanPtr CostModel::ResolveChoicesAvoiding(const PlanPtr& plan,
                                          const SubQueryAvoidSet& avoid) const {
  Walk walk(*this, /*resolve=*/true, &avoid);
  const Walk::Result& result = walk.Visit(*plan, &plan);
  // nullptr when every alternative touches the avoid-set.
  return result.feasible ? result.plan : nullptr;
}

}  // namespace gencompact
