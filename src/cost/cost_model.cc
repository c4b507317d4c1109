#include "cost/cost_model.h"

#include <algorithm>

namespace gencompact {

SourceQueryMemo::Entry CostModel::Estimate(const ConditionNode& cond,
                                           const AttributeSet& attrs,
                                           SourceQueryMemo* memo) const {
  if (memo == nullptr) {
    const double rows = EstimateResultRows(cond, attrs);
    return {rows, SourceQueryCostOfRows(rows)};
  }
  const auto [it, inserted] =
      memo->entries_.try_emplace(SubQueryKey(cond, attrs));
  if (inserted) {
    it->second.rows = EstimateResultRows(cond, attrs);
    it->second.cost = SourceQueryCostOfRows(it->second.rows);
  }
  return it->second;
}

double CostModel::OutputRows(const PlanNode& plan,
                             SourceQueryMemo* memo) const {
  switch (plan.kind()) {
    case PlanNode::Kind::kSourceQuery:
      return Estimate(*plan.condition(), plan.attrs(), memo).rows;
    case PlanNode::Kind::kMediatorSp: {
      const double child = OutputRows(*plan.children().front(), memo);
      return std::min(child, EstimateRows(*plan.condition()));
    }
    case PlanNode::Kind::kUnion: {
      double total = 0;
      for (const PlanPtr& child : plan.children()) {
        total += OutputRows(*child, memo);
      }
      return total;
    }
    case PlanNode::Kind::kIntersect: {
      double best = -1;
      for (const PlanPtr& child : plan.children()) {
        const double rows = OutputRows(*child, memo);
        best = best < 0 ? rows : std::min(best, rows);
      }
      return best < 0 ? 0 : best;
    }
    case PlanNode::Kind::kChoice: {
      // Rows of the cheapest child (the one the cost module will pick).
      double best_cost = -1;
      double best_rows = 0;
      for (const PlanPtr& child : plan.children()) {
        const double cost = PlanCost(*child, memo);
        if (best_cost < 0 || cost < best_cost) {
          best_cost = cost;
          best_rows = OutputRows(*child, memo);
        }
      }
      return best_rows;
    }
  }
  return 0;
}

double CostModel::PlanCost(const PlanNode& plan, SourceQueryMemo* memo) const {
  switch (plan.kind()) {
    case PlanNode::Kind::kSourceQuery:
      return Estimate(*plan.condition(), plan.attrs(), memo).cost;
    case PlanNode::Kind::kMediatorSp:
      return MediatorSpCost(*plan.children().front(), memo);
    case PlanNode::Kind::kUnion:
    case PlanNode::Kind::kIntersect: {
      double cost = 0;
      for (const PlanPtr& child : plan.children()) {
        cost += PlanCost(*child, memo);
        if (mediator_k3_ > 0) {
          cost += mediator_k3_ * OutputRows(*child, memo);
        }
      }
      return cost;
    }
    case PlanNode::Kind::kChoice: {
      double best = -1;
      for (const PlanPtr& child : plan.children()) {
        const double cost = PlanCost(*child, memo);
        if (best < 0 || cost < best) best = cost;
      }
      return best < 0 ? 0 : best;
    }
  }
  return 0;
}

double CostModel::MediatorSpCost(const PlanNode& input,
                                 SourceQueryMemo* memo) const {
  double cost = PlanCost(input, memo);
  if (mediator_k3_ > 0) cost += mediator_k3_ * OutputRows(input, memo);
  return cost;
}

double CostModel::MediatorSpCost(const ConditionNode& cond,
                                 const AttributeSet& attrs,
                                 SourceQueryMemo* memo) const {
  const SourceQueryMemo::Entry input = Estimate(cond, attrs, memo);
  double cost = input.cost;
  if (mediator_k3_ > 0) cost += mediator_k3_ * input.rows;
  return cost;
}

PlanPtr CostModel::ResolveChoices(const PlanPtr& plan) const {
  switch (plan->kind()) {
    case PlanNode::Kind::kSourceQuery:
      return plan;
    case PlanNode::Kind::kMediatorSp: {
      PlanPtr child = ResolveChoices(plan->children().front());
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
        PlanPtr resolved = ResolveChoices(child);
        changed = changed || resolved != child;
        children.push_back(std::move(resolved));
      }
      if (!changed) return plan;
      return plan->kind() == PlanNode::Kind::kUnion
                 ? PlanNode::UnionOf(std::move(children))
                 : PlanNode::IntersectOf(std::move(children));
    }
    case PlanNode::Kind::kChoice: {
      const PlanPtr* best = nullptr;
      double best_cost = -1;
      for (const PlanPtr& child : plan->children()) {
        const double cost = PlanCost(*child);
        if (best == nullptr || cost < best_cost) {
          best = &child;
          best_cost = cost;
        }
      }
      return ResolveChoices(*best);
    }
  }
  return plan;
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
  switch (plan->kind()) {
    case PlanNode::Kind::kSourceQuery:
      if (avoid.count(SubQueryKey(*plan->condition(), plan->attrs())) > 0) {
        return nullptr;
      }
      return plan;
    case PlanNode::Kind::kMediatorSp: {
      PlanPtr child = ResolveChoicesAvoiding(plan->children().front(), avoid);
      if (child == nullptr) return nullptr;
      if (child == plan->children().front()) return plan;
      return PlanNode::MediatorSp(plan->condition(), plan->attrs(),
                                  std::move(child));
    }
    case PlanNode::Kind::kUnion:
    case PlanNode::Kind::kIntersect: {
      // Every child is required: one unavoidable child sinks this subtree
      // (the Choice above it may still have other alternatives).
      std::vector<PlanPtr> children;
      children.reserve(plan->children().size());
      bool changed = false;
      for (const PlanPtr& child : plan->children()) {
        PlanPtr resolved = ResolveChoicesAvoiding(child, avoid);
        if (resolved == nullptr) return nullptr;
        changed = changed || resolved != child;
        children.push_back(std::move(resolved));
      }
      if (!changed) return plan;
      return plan->kind() == PlanNode::Kind::kUnion
                 ? PlanNode::UnionOf(std::move(children))
                 : PlanNode::IntersectOf(std::move(children));
    }
    case PlanNode::Kind::kChoice: {
      // Cheapest resolvable alternative; resolved subtrees are Choice-free,
      // so PlanCost is exact on them.
      PlanPtr best;
      double best_cost = -1;
      for (const PlanPtr& child : plan->children()) {
        PlanPtr resolved = ResolveChoicesAvoiding(child, avoid);
        if (resolved == nullptr) continue;
        const double cost = PlanCost(*resolved);
        if (best == nullptr || cost < best_cost) {
          best = std::move(resolved);
          best_cost = cost;
        }
      }
      return best;  // nullptr when every alternative touches the avoid-set
    }
  }
  return plan;
}

}  // namespace gencompact
