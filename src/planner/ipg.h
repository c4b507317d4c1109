#ifndef GENCOMPACT_PLANNER_IPG_H_
#define GENCOMPACT_PLANNER_IPG_H_

#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "plan/plan.h"
#include "plan/sub_query_key.h"
#include "planner/set_cover.h"
#include "planner/source_handle.h"

namespace gencompact {

/// Options for the Integrated Plan Generator (Section 6.4).
struct IpgOptions {
  // Pruning rules (Section 6.3). All on by default; the ablation benchmark
  // toggles them. Disabling never changes the returned optimum (invariant 3
  // of DESIGN.md), only the work done.
  bool pr1 = true;  ///< pure plan prunes the impure search
  bool pr2 = true;  ///< keep only the cheapest plan per sub-query
  bool pr3 = true;  ///< prune dominated sub-plans

  /// Safe ∧-combination mode (DESIGN.md): sub-plans intersected at an ∧
  /// node fetch A ∪ Attr(Cond(n)) so that the intersection of projections
  /// is provably exact, with a final mediator projection to A. When false,
  /// combinations follow the paper verbatim (strict_paper_mode).
  bool safe_combination = true;

  SetCoverAlgorithm mcsc = SetCoverAlgorithm::kSubsetDp;

  /// Nodes with more children than this get only singleton + full-set
  /// decompositions (2^k guard); the run is reported incomplete.
  size_t max_subset_children = 14;
};

struct IpgStats {
  size_t calls = 0;               ///< IPG invocations (including memo hits)
  size_t mcsc_invocations = 0;
  size_t max_subplans = 0;        ///< largest Q handed to MCSC
  size_t total_subplans = 0;      ///< sub-plan candidates considered
  size_t checks = 0;              ///< distinct conditions asked of Check
  size_t cost_estimates = 0;      ///< distinct source queries costed
  bool incomplete = false;        ///< a guard tripped somewhere
};

/// IPG (Algorithm 6.1 + Figures 5 and 6): returns the single best feasible
/// plan for SP(n, A, R) on a canonical CT, or nullptr if none exists.
///
/// One Ipg object serves one planning run (GenCompactPlanner::Plan makes one
/// per call, over all its CTs) and asks each question once in that run:
/// results are memoized on (node, attrs), Check families on the condition,
/// source-query estimates on the sub-query, and child-subset conditions on
/// (node, mask). The memos die with the object, so no constant, health
/// penalty or description epoch can go stale between runs.
class Ipg {
 public:
  explicit Ipg(SourceHandle* source, IpgOptions options = {})
      : source_(source), options_(options) {}

  /// Best feasible plan for SP(node, attrs, R); nullptr if infeasible.
  /// `node` should be canonical (see Canonicalize); non-canonical input is
  /// accepted but explores a smaller space.
  PlanPtr Plan(const ConditionPtr& node, const AttributeSet& attrs);

  /// The source's PlanCost of `plan`, under this run's source-query memo.
  double Cost(const PlanNode& plan) {
    return source_->cost_model().PlanCost(plan, &costs_);
  }

  IpgStats stats() const {
    IpgStats stats = stats_;
    stats.checks = checks_.size();
    stats.cost_estimates = costs_.size();
    return stats;
  }

 private:
  // A candidate sub-plan covering a set of children.
  struct SubPlan {
    PlanPtr plan;
    double cost = 0.0;
    bool pure = false;  ///< a direct source query for exactly its cover
  };
  // Sub-plan table: children-mask -> candidates (a single cheapest entry
  // when PR2 is on).
  using SubPlanTable = std::map<uint32_t, std::vector<SubPlan>>;

  PlanPtr PlanUncached(const ConditionPtr& node, const AttributeSet& attrs);
  PlanPtr PlanOrNode(const ConditionPtr& node, const AttributeSet& attrs);
  PlanPtr PlanAndNode(const ConditionPtr& node, const AttributeSet& attrs);

  /// Figure 6 step 1 for an ∧ node: the sub-plan table over child subsets,
  /// with every sub-plan projecting to `work_attrs`.
  SubPlanTable BuildAndSubPlans(const ConditionPtr& node,
                                const AttributeSet& work_attrs,
                                const std::vector<AttributeSet>& child_attrs,
                                const std::vector<uint32_t>& masks);

  /// The download-and-postprocess plan (Algorithm 6.1's plan_impure), or
  /// nullptr if downloading is not feasible.
  PlanPtr DownloadPlan(const ConditionPtr& node, const AttributeSet& attrs);

  /// Counts a candidate of `cost` for table[mask] and returns the slot it
  /// takes, with cost and pure flag set and the plan for the caller to
  /// build; null when PR2 keeps the current entry instead.
  SubPlan* Admit(SubPlanTable* table, uint32_t mask, double cost, bool pure);

  /// Admit for a plan that is already built.
  void AddSubPlan(SubPlanTable* table, uint32_t mask, PlanPtr plan, bool pure);

  /// CheaperOf(a, b): the lower-cost plan; on a tie, the smaller one.
  PlanPtr CheaperOf(PlanPtr a, PlanPtr b);

  /// Check(cond) and Supports(cond, attrs), asking the Checker once per
  /// distinct condition in this run.
  const std::vector<AttributeSet>& Exports(const ConditionNode& cond);
  bool Supports(const ConditionNode& cond, const AttributeSet& attrs);

  /// ChildSubsetCondition(node, mask), built once per (node, mask).
  const ConditionPtr& SubsetCondition(const ConditionNode& node,
                                      uint32_t mask);

  /// PR3: drops sub-plans dominated by a cheaper-or-equal sub-plan covering
  /// a strict superset of children.
  void PruneDominated(SubPlanTable* table) const;

  /// Child-subset masks to enumerate for a node with `k` children,
  /// respecting the 2^k guard.
  std::vector<uint32_t> SubsetMasks(size_t k);

  /// MCSC combination step shared by ∧ and ∨ nodes. Returns the cheapest
  /// combined plan (Union for ∨, Intersect for ∧) or nullptr.
  PlanPtr CombineSubPlans(const SubPlanTable& table, uint32_t universe,
                          bool intersect);

  struct SubsetKey {
    ConditionId node = 0;
    uint32_t mask = 0;
    bool operator==(const SubsetKey& other) const {
      return node == other.node && mask == other.mask;
    }
  };
  struct SubsetKeyHash {
    size_t operator()(const SubsetKey& key) const {
      SubQueryKey mixed;  // reuses SubQueryKeyHash's mixer
      mixed.condition_id = key.node;
      mixed.attrs_bits = key.mask;
      return SubQueryKeyHash()(mixed);
    }
  };

  SourceHandle* source_;
  IpgOptions options_;
  IpgStats stats_;
  // Keyed by (ConditionId, attrs): interning makes structurally equal
  // subtrees share one id, so the memo hits across the distributive CT
  // rewritings that share sub-conditions, not just on pointer reuse.
  std::unordered_map<SubQueryKey, PlanPtr, SubQueryKeyHash> memo_;
  // Check families by condition id. Ids are never reused, and the Checker
  // keeps every family it returned alive for its own lifetime.
  std::unordered_map<ConditionId, const std::vector<AttributeSet>*> checks_;
  SourceQueryMemo costs_;
  std::unordered_map<SubsetKey, ConditionPtr, SubsetKeyHash> subsets_;
};

}  // namespace gencompact

#endif  // GENCOMPACT_PLANNER_IPG_H_
