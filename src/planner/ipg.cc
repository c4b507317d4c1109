#include "planner/ipg.h"

#include <algorithm>
#include <bit>

#include "planner/child_subsets.h"

namespace gencompact {

namespace {

// Returns Attr(cond) or an empty optional when the condition references
// attributes outside the schema (such conditions are unplannable).
std::optional<AttributeSet> AttrsOf(const ConditionNode& cond,
                                    const Schema& schema) {
  const Result<AttributeSet> attrs = cond.Attributes(schema);
  if (!attrs.ok()) return std::nullopt;
  return attrs.value();
}

// Attr of the child subset `mask`: the union of its children's attributes,
// which is what Attributes() computes on ChildSubsetCondition(node, mask).
AttributeSet SubsetAttrs(const std::vector<AttributeSet>& child_attrs,
                         uint32_t mask) {
  AttributeSet attrs;
  for (uint32_t rest = mask; rest != 0; rest &= rest - 1) {
    const size_t child = static_cast<size_t>(std::countr_zero(rest));
    attrs = attrs.Union(child_attrs[child]);
  }
  return attrs;
}

}  // namespace

PlanPtr Ipg::CheaperOf(PlanPtr a, PlanPtr b) {
  if (a == nullptr) return b;
  if (b == nullptr) return a;
  const double cost_a = Cost(*a);
  const double cost_b = Cost(*b);
  if (cost_a != cost_b) return cost_a < cost_b ? a : b;
  // Tie-break on structural simplicity so equal-cost alternatives resolve
  // deterministically to the smaller plan.
  return a->Size() <= b->Size() ? a : b;
}

const std::vector<AttributeSet>& Ipg::Exports(const ConditionNode& cond) {
  const auto [it, inserted] = checks_.try_emplace(cond.id(), nullptr);
  if (inserted) it->second = &source_->checker()->Check(cond);
  return *it->second;
}

bool Ipg::Supports(const ConditionNode& cond, const AttributeSet& attrs) {
  for (const AttributeSet& exported : Exports(cond)) {
    if (attrs.IsSubsetOf(exported)) return true;
  }
  return false;
}

const ConditionPtr& Ipg::SubsetCondition(const ConditionNode& node,
                                         uint32_t mask) {
  ConditionPtr& cond = subsets_[SubsetKey{node.id(), mask}];
  if (cond == nullptr) cond = ChildSubsetCondition(node, mask);
  return cond;
}

PlanPtr Ipg::Plan(const ConditionPtr& node, const AttributeSet& attrs) {
  ++stats_.calls;
  const SubQueryKey key(*node, attrs);
  const auto it = memo_.find(key);
  if (it != memo_.end()) return it->second;
  PlanPtr plan = PlanUncached(node, attrs);
  memo_.emplace(key, plan);
  return plan;
}

PlanPtr Ipg::DownloadPlan(const ConditionPtr& node, const AttributeSet& attrs) {
  const std::optional<AttributeSet> cond_attrs =
      AttrsOf(*node, source_->schema());
  if (!cond_attrs.has_value()) return nullptr;
  const AttributeSet needed = attrs.Union(*cond_attrs);
  const ConditionPtr true_cond = ConditionNode::True();
  if (!Supports(*true_cond, needed)) return nullptr;
  return PlanNode::MediatorSp(node, attrs,
                              PlanNode::SourceQuery(true_cond, needed));
}

PlanPtr Ipg::PlanUncached(const ConditionPtr& node, const AttributeSet& attrs) {
  // Pure plan; with PR1 it short-circuits the whole search (it is optimal
  // under the cost model: any impure plan uses at least as many source
  // queries and transfers at least as much data).
  PlanPtr pure;
  if (Supports(*node, attrs)) {
    pure = PlanNode::SourceQuery(node, attrs);
    if (options_.pr1) return pure;
  }

  PlanPtr best = DownloadPlan(node, attrs);  // plan_impure seed

  switch (node->kind()) {
    case ConditionNode::Kind::kTrue:
    case ConditionNode::Kind::kAtom:
      break;  // leaves: no further impure plans
    case ConditionNode::Kind::kOr:
      best = CheaperOf(PlanOrNode(node, attrs), best);
      break;
    case ConditionNode::Kind::kAnd:
      best = CheaperOf(PlanAndNode(node, attrs), best);
      break;
  }

  if (pure != nullptr) best = CheaperOf(pure, best);
  return best;
}

Ipg::SubPlan* Ipg::Admit(SubPlanTable* table, uint32_t mask, double cost,
                         bool pure) {
  ++stats_.total_subplans;
  std::vector<SubPlan>& entry = (*table)[mask];
  if (options_.pr2 && !entry.empty()) {
    // PR2: keep only the cheapest plan per sub-query (pure flag follows the
    // survivor; ties prefer the pure plan so PR1/PR3 checks stay strong).
    SubPlan& current = entry.front();
    const bool replace =
        cost < current.cost || (cost == current.cost && pure && !current.pure);
    if (!replace) return nullptr;
    current = SubPlan{nullptr, cost, pure};
    return &current;
  }
  entry.push_back(SubPlan{nullptr, cost, pure});
  return &entry.back();
}

void Ipg::AddSubPlan(SubPlanTable* table, uint32_t mask, PlanPtr plan,
                     bool pure) {
  if (SubPlan* slot = Admit(table, mask, Cost(*plan), pure)) {
    slot->plan = std::move(plan);
  }
}

void Ipg::PruneDominated(SubPlanTable* table) const {
  if (!options_.pr3) return;
  // A sub-plan P2 for cover N2 is dominated by P1 for cover N1 when
  // N2 ⊂ N1 and cost(P1) <= cost(P2) (Section 6.3, PR3). Equal covers are
  // already handled by PR2 / kept as alternatives when PR2 is off.
  for (auto it = table->begin(); it != table->end();) {
    const uint32_t mask = it->first;
    std::vector<SubPlan>& plans = it->second;
    for (const auto& [other_mask, other_plans] : *table) {
      if (other_mask == mask) continue;
      if ((mask & other_mask) != mask) continue;  // need mask ⊂ other_mask
      double cheapest_other = -1;
      for (const SubPlan& op : other_plans) {
        if (cheapest_other < 0 || op.cost < cheapest_other) {
          cheapest_other = op.cost;
        }
      }
      if (cheapest_other < 0) continue;
      std::erase_if(plans, [cheapest_other](const SubPlan& sp) {
        return cheapest_other <= sp.cost;
      });
      if (plans.empty()) break;
    }
    it = plans.empty() ? table->erase(it) : std::next(it);
  }
}

std::vector<uint32_t> Ipg::SubsetMasks(size_t k) {
  std::vector<uint32_t> masks;
  if (k <= options_.max_subset_children && k < 31) {
    const uint32_t full = (uint32_t{1} << k) - 1;
    masks.reserve(full);
    for (uint32_t mask = 1; mask <= full; ++mask) masks.push_back(mask);
  } else {
    stats_.incomplete = true;
    if (k < 31) {
      const uint32_t full = (uint32_t{1} << k) - 1;
      masks.push_back(full);
      for (size_t i = 0; i < k; ++i) masks.push_back(uint32_t{1} << i);
    }
  }
  return masks;
}

PlanPtr Ipg::CombineSubPlans(const SubPlanTable& table, uint32_t universe,
                             bool intersect) {
  std::vector<SetCoverCandidate> candidates;
  std::vector<const SubPlan*> plans;
  for (const auto& [mask, entry] : table) {
    for (const SubPlan& sub : entry) {
      candidates.push_back({mask, sub.cost});
      plans.push_back(&sub);
    }
  }
  ++stats_.mcsc_invocations;
  stats_.max_subplans = std::max(stats_.max_subplans, candidates.size());
  const SetCoverResult cover =
      SolveMinCostSetCover(universe, candidates, options_.mcsc);
  if (!cover.found) return nullptr;
  if (!cover.optimal) stats_.incomplete = true;
  std::vector<PlanPtr> chosen;
  chosen.reserve(cover.chosen.size());
  for (int index : cover.chosen) {
    chosen.push_back(plans[static_cast<size_t>(index)]->plan);
  }
  return intersect ? PlanNode::IntersectOf(std::move(chosen))
                   : PlanNode::UnionOf(std::move(chosen));
}

PlanPtr Ipg::PlanOrNode(const ConditionPtr& node, const AttributeSet& attrs) {
  const std::vector<ConditionPtr>& children = node->children();
  const size_t k = children.size();
  if (k >= 31) {
    stats_.incomplete = true;
    return nullptr;
  }
  const uint32_t universe = (uint32_t{1} << k) - 1;

  // Step 1 (Figure 5, lines 1-7): find sub-plans.
  SubPlanTable table;
  for (uint32_t mask : SubsetMasks(k)) {
    const ConditionPtr& sub_cond = SubsetCondition(*node, mask);
    if (Supports(*sub_cond, attrs)) {
      AddSubPlan(&table, mask, PlanNode::SourceQuery(sub_cond, attrs),
                 /*pure=*/true);
    }
  }
  for (size_t i = 0; i < k; ++i) {
    const uint32_t mask = uint32_t{1} << i;
    const auto it = table.find(mask);
    const bool has_pure =
        it != table.end() &&
        std::any_of(it->second.begin(), it->second.end(),
                    [](const SubPlan& sp) { return sp.pure; });
    // PR1: skip the recursive search when a pure sub-plan exists.
    if (options_.pr1 && has_pure) continue;
    PlanPtr sub = Plan(children[i], attrs);
    if (sub != nullptr) AddSubPlan(&table, mask, std::move(sub), /*pure=*/false);
  }

  // Step 2 (lines 8-14): prune dominated sub-plans, then choose the
  // min-cost set of sub-plans covering all children (MCSC), combining with
  // mediator union.
  PruneDominated(&table);
  return CombineSubPlans(table, universe, /*intersect=*/false);
}

Ipg::SubPlanTable Ipg::BuildAndSubPlans(
    const ConditionPtr& node, const AttributeSet& work_attrs,
    const std::vector<AttributeSet>& child_attrs,
    const std::vector<uint32_t>& masks) {
  const CostModel& cost_model = source_->cost_model();
  const std::vector<ConditionPtr>& children = node->children();
  const size_t k = children.size();

  // Step 1a (Figure 6, lines 3-9): supported conjunctions of child subsets,
  // plus MaxEval extensions - children evaluable at the mediator from the
  // attributes the source query already exports.
  SubPlanTable table;
  for (uint32_t mask : masks) {
    const ConditionPtr& sub_cond = SubsetCondition(*node, mask);
    bool added_pure = false;
    for (const AttributeSet& exported : Exports(*sub_cond)) {
      if (!work_attrs.IsSubsetOf(exported)) continue;
      if (!added_pure) {
        AddSubPlan(&table, mask, PlanNode::SourceQuery(sub_cond, work_attrs),
                   /*pure=*/true);
        added_pure = true;
      }
      // MaxEval(A_N, n) \ N: children whose conditions the mediator can
      // evaluate using attributes exported by this source query.
      uint32_t nadd = 0;
      for (size_t m = 0; m < k; ++m) {
        if (mask >> m & 1) continue;
        if (child_attrs[m].IsSubsetOf(exported)) nadd |= uint32_t{1} << m;
      }
      if (nadd == 0) continue;
      const size_t nadd_count = static_cast<size_t>(std::popcount(nadd));
      if (nadd_count > options_.max_subset_children) {
        stats_.incomplete = true;
        continue;
      }
      // Enumerate nonempty M subsets of nadd via the subset-stepping trick.
      // A candidate is costed from its source query and built only if PR2
      // keeps it. Its attributes lie within `exported`, as nadd's do.
      for (uint32_t m_sub = nadd; m_sub != 0; m_sub = (m_sub - 1) & nadd) {
        const AttributeSet inner =
            work_attrs.Union(SubsetAttrs(child_attrs, m_sub));
        const double cost =
            cost_model.MediatorSpCost(*sub_cond, inner, &costs_);
        if (SubPlan* slot = Admit(&table, mask | m_sub, cost, /*pure=*/false)) {
          slot->plan =
              PlanNode::MediatorSp(SubsetCondition(*node, m_sub), work_attrs,
                                   PlanNode::SourceQuery(sub_cond, inner));
        }
      }
    }
  }

  // Step 1b (lines 10-13): recursive plans for single children, optionally
  // evaluating sibling subsets at the mediator on their results.
  //
  // PR1 (N'' == N') and PR3 (N' strict subset of N'') prune recursion when
  // a pure sub-plan already covers N' or a superset.
  std::vector<uint32_t> pure_masks;
  for (const auto& [mask, entry] : table) {
    for (const SubPlan& sub : entry) {
      if (sub.pure) {
        pure_masks.push_back(mask);
        break;
      }
    }
  }
  const auto pure_superset_exists = [&](uint32_t mask) {
    for (uint32_t pm : pure_masks) {
      if ((mask & pm) != mask) continue;  // need mask subset of pm
      if (pm == mask && options_.pr1) return true;
      if (pm != mask && options_.pr3) return true;
    }
    return false;
  };

  for (size_t i = 0; i < k; ++i) {
    const uint32_t self = uint32_t{1} << i;
    for (uint32_t mask : masks) {
      if ((mask & self) == 0) continue;
      if (pure_superset_exists(mask)) continue;
      const uint32_t rest = mask & ~self;
      const AttributeSet requested =
          work_attrs.Union(SubsetAttrs(child_attrs, rest));
      PlanPtr sub = Plan(children[i], requested);
      if (sub == nullptr) continue;
      if (rest == 0) {
        AddSubPlan(&table, mask, std::move(sub), /*pure=*/false);
        continue;
      }
      // The wrapper evaluating the rest at the mediator, built only if PR2
      // keeps it.
      const double cost = cost_model.MediatorSpCost(*sub, &costs_);
      if (SubPlan* slot = Admit(&table, mask, cost, /*pure=*/false)) {
        slot->plan = PlanNode::MediatorSp(SubsetCondition(*node, rest),
                                          work_attrs, std::move(sub));
      }
    }
  }
  return table;
}

PlanPtr Ipg::PlanAndNode(const ConditionPtr& node, const AttributeSet& attrs) {
  const Schema& schema = source_->schema();
  const std::vector<ConditionPtr>& children = node->children();
  const size_t k = children.size();
  if (k >= 31) {
    stats_.incomplete = true;
    return nullptr;
  }
  const uint32_t universe = (uint32_t{1} << k) - 1;

  // Per-child attribute sets (for MaxEval).
  std::vector<AttributeSet> child_attrs(k);
  for (size_t i = 0; i < k; ++i) {
    const std::optional<AttributeSet> ca = AttrsOf(*children[i], schema);
    if (!ca.has_value()) return nullptr;
    child_attrs[i] = *ca;
  }

  const std::vector<uint32_t> masks = SubsetMasks(k);
  SubPlanTable table = BuildAndSubPlans(node, attrs, child_attrs, masks);
  PruneDominated(&table);

  // A single sub-plan covering every child is a pure mediator-selection
  // chain: exact under set semantics in both combination modes.
  PlanPtr best_single;
  const auto full_it = table.find(universe);
  if (full_it != table.end()) {
    for (const SubPlan& sub : full_it->second) {
      best_single = CheaperOf(best_single, sub.plan);
    }
  }

  // Step 2 (lines 14-20): choose the min-cost set of sub-plans covering all
  // children (MCSC), combining with mediator intersection.
  PlanPtr combined;
  if (!options_.safe_combination) {
    // The paper's semantics: intersect projections to A directly.
    combined = CombineSubPlans(table, universe, /*intersect=*/true);
  } else {
    // Safe mode (DESIGN.md): intersected sub-plans must carry
    // A + Attr(Cond(n)) so the intersection of projections is exact; the
    // mediator projects back to A at the end.
    const AttributeSet augmented =
        attrs.Union(SubsetAttrs(child_attrs, universe));
    if (augmented == attrs) {
      combined = CombineSubPlans(table, universe, /*intersect=*/true);
    } else {
      SubPlanTable augmented_table =
          BuildAndSubPlans(node, augmented, child_attrs, masks);
      PruneDominated(&augmented_table);
      PlanPtr multi =
          CombineSubPlans(augmented_table, universe, /*intersect=*/true);
      if (multi != nullptr) {
        combined = PlanNode::MediatorSp(ConditionNode::True(), attrs,
                                        std::move(multi));
      }
    }
  }
  return CheaperOf(best_single, combined);
}

}  // namespace gencompact
