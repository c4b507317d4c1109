#ifndef GENCOMPACT_PLANNER_IPG_H_
#define GENCOMPACT_PLANNER_IPG_H_

#include <cstdint>
#include <unordered_map>
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

  bool operator==(const IpgOptions&) const = default;
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

/// IPG's feasible sub-plan space for one query shape, with no cost in it.
///
/// IPG (Algorithm 6.1 + Figures 5 and 6) decides some things from the
/// condition's shape — which sub-conditions the source supports and what
/// they export (Check), the child-subset conditions, MaxEval sets, the PR1
/// short-circuit, where it recurses — and the rest from costs: PR2, PR3,
/// MCSC and CheaperOf. IpgBuilder makes the first kind of decision once and
/// records the outcome here; IpgCostPass makes the second kind for each
/// query, with that query's constants.
///
/// Conditions are stored as recipes over atom *slots* (one per distinct
/// atom of the query), not as built nodes, so a template built from one
/// query serves every query of the same shape: the cost pass rebuilds a
/// recipe from its own query's atoms. A node records one IPG call
/// SP(n, A): its pure source query, its download plan, and the candidate
/// sub-plan tables of its ∨/∧ search, each in IPG's admission order.
struct IpgTemplate {
  /// A condition: `true`, the atom in `slot`, or a connector over the
  /// recipes recipe_children[first, first + count).
  struct Recipe {
    ConditionNode::Kind kind = ConditionNode::Kind::kTrue;
    uint32_t slot = 0;   ///< kAtom
    uint32_t first = 0;  ///< kAnd / kOr
    uint32_t count = 0;
  };

  /// SP(recipe, attrs, R).
  struct SourceQuery {
    uint32_t cond = 0;
    AttributeSet attrs;
  };

  /// One sub-plan candidate of a table, in admission order.
  struct Candidate {
    enum class Kind : uint8_t {
      kPure,       ///< the supported source query `target`
      kMaxEval,    ///< SP(mediator, work, source query `target`)
      kRecurse,    ///< IPG node `target` for one child
      kRecurseSp,  ///< SP(mediator, work, IPG node `target`)
    };
    Kind kind = Kind::kPure;
    uint32_t slot = 0;      ///< index of the candidate's cover in the table
    uint32_t target = 0;    ///< source query or node index
    uint32_t mediator = 0;  ///< recipe of the mediator selection
    /// Step 1b recursions IPG skips when a pure sub-plan survives PR2 at
    /// one of the table slots guards[guard_first, guard_first + guard_count)
    /// (a cost decision, so it waits for the cost pass); 0 = unconditional.
    uint32_t guard_first = 0;
    uint32_t guard_count = 0;
  };

  /// The sub-plan table of one ∨ node or one ∧ node at one work attribute
  /// set: candidates[first, first + count), of which the first `direct`
  /// come from IPG's step 1 (supported subsets and MaxEval) and the rest
  /// from recursion; covers masks[first_mask, first_mask + num_masks),
  /// ascending, indexed by Candidate::slot.
  struct Table {
    AttributeSet work;
    uint32_t universe = 0;
    uint32_t first = 0;
    uint32_t count = 0;
    uint32_t direct = 0;
    uint32_t first_mask = 0;
    uint32_t num_masks = 0;
  };

  /// One IPG call SP(cond, attrs).
  struct Node {
    enum class Body : uint8_t { kLeaf, kOr, kAnd };
    uint32_t cond = 0;
    AttributeSet attrs;
    int32_t pure = -1;      ///< source query when supported
    int32_t download = -1;  ///< SP(true, ·) of the download plan, if feasible
    Body body = Body::kLeaf;
    /// The ∨/∧ search returns no plan whatever the costs (too many
    /// children, attributes outside the schema).
    bool body_infeasible = false;
    bool incomplete = false;  ///< a 2^k / MaxEval guard tripped here
    int32_t table = -1;       ///< ∨: the union table; ∧: attrs-level table
    int32_t augmented = -1;   ///< ∧ in safe mode: the A ∪ Attr(n) table
  };

  std::vector<Recipe> recipes;
  std::vector<uint32_t> recipe_children;
  std::vector<SourceQuery> source_queries;
  std::vector<Candidate> candidates;
  std::vector<uint32_t> guards;
  std::vector<uint32_t> masks;
  std::vector<Table> tables;
  std::vector<Node> nodes;
  int32_t true_recipe = -1;
  uint32_t num_slots = 0;

  /// Heap bytes held (capacity of every array).
  size_t MemoryBytes() const;

  /// Releases the arrays' spare capacity once the build is done.
  void ShrinkToFit();
};

/// The build: runs IPG's shape decisions over conditions of one query and
/// appends what they leave open to an IpgTemplate. Asks Check (once per
/// distinct condition) and never the cost model. Nodes are memoized on
/// (ConditionId, attrs), as IPG memoizes its calls, so the distributive CTs
/// of one query share their common sub-searches.
class IpgBuilder {
 public:
  /// `source` and `out` must outlive the builder.
  IpgBuilder(SourceHandle* source, const IpgOptions& options, IpgTemplate* out);

  /// Makes atom `atom` (and every atom with its id) use `slot`. Atoms not
  /// assigned get the next free slot on first sight (see atoms()).
  void AssignSlot(const ConditionNode& atom, uint32_t slot);

  /// The template node of IPG's call SP(node, attrs).
  uint32_t Node(const ConditionPtr& node, const AttributeSet& attrs);

  /// The built condition of every recipe so far, by recipe index: the cost
  /// pass of the query the template was built from reuses them.
  const std::vector<ConditionPtr>& conditions() const { return conditions_; }

  /// One atom per slot, for slots assigned on first sight.
  const std::vector<ConditionPtr>& atoms() const { return atoms_; }

  /// Distinct conditions asked of Check so far.
  size_t checks() const { return checks_.size(); }

 private:
  struct PendingCandidate;
  class TableBuilder;

  const std::vector<AttributeSet>& Exports(const ConditionNode& cond);
  bool Supports(const ConditionNode& cond, const AttributeSet& attrs);
  const ConditionPtr& SubsetCondition(const ConditionNode& node,
                                      uint32_t mask);
  uint32_t Recipe(const ConditionPtr& cond);
  uint32_t SourceQuery(const ConditionPtr& cond, const AttributeSet& attrs);
  std::vector<uint32_t> SubsetMasks(size_t k, bool* incomplete) const;
  void BuildOr(const ConditionPtr& node, IpgTemplate::Node* out);
  void BuildAnd(const ConditionPtr& node, IpgTemplate::Node* out);
  uint32_t BuildAndTable(const ConditionPtr& node,
                         const AttributeSet& work_attrs,
                         const std::vector<AttributeSet>& child_attrs,
                         const std::vector<uint32_t>& masks, bool* incomplete);

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
  IpgTemplate* out_;
  std::unordered_map<SubQueryKey, uint32_t, SubQueryKeyHash> nodes_;
  // Check families by condition id. Ids are never reused, and the Checker
  // keeps every family it returned alive for its own lifetime.
  std::unordered_map<ConditionId, const std::vector<AttributeSet>*> checks_;
  std::unordered_map<SubsetKey, ConditionPtr, SubsetKeyHash> subsets_;
  std::unordered_map<ConditionId, uint32_t> recipes_;
  std::unordered_map<SubQueryKey, uint32_t, SubQueryKeyHash> source_queries_;
  std::unordered_map<ConditionId, uint32_t> slots_;
  std::vector<ConditionPtr> conditions_;
  std::vector<ConditionPtr> atoms_;
};

/// The cost pass: IPG's cost decisions over a template, for one query's
/// constants. It estimates each distinct source query once, replays PR2,
/// the step-1b skip, PR3, MCSC and CheaperOf in IPG's order on flat arrays,
/// and builds only the plan it returns, so its plans, costs and counters
/// are the ones IPG computes for the same query. One pass is one planning
/// run: calls share its memo of node results, as IPG's calls shared theirs.
class IpgCostPass {
 public:
  /// `atoms` holds one atom per template slot: the query's own. All of
  /// `source`, `tmpl` and `atoms` must outlive the pass; the template may
  /// grow between calls.
  IpgCostPass(SourceHandle* source, const IpgTemplate* tmpl,
              const IpgOptions& options,
              const std::vector<ConditionPtr>* atoms);
  ~IpgCostPass();
  IpgCostPass(const IpgCostPass&) = delete;
  IpgCostPass& operator=(const IpgCostPass&) = delete;

  /// Conditions already built for the template's recipes (by recipe index;
  /// null entries are rebuilt on demand).
  void AdoptConditions(const std::vector<ConditionPtr>& conditions);

  /// Runs IPG's call for template node `node` (one call, memoized):
  /// true iff a feasible plan exists, with its cost in `*cost`.
  bool Plan(uint32_t node, double* cost);

  /// The plan an earlier Plan(node) chose.
  PlanPtr Build(uint32_t node);

  /// calls, mcsc_invocations, max_subplans, total_subplans, incomplete and
  /// cost_estimates of this run (checks belong to the build).
  const IpgStats& stats() const { return stats_; }

 private:
  struct Ref;
  struct Live;
  struct Cover;
  struct NodeState;
  struct Slot;

  const ConditionPtr& Cond(uint32_t recipe);
  const SourceQueryEstimate& Estimate(uint32_t source_query);
  double EstimateRows(uint32_t recipe);
  Ref SourceQueryRef(uint32_t source_query);
  Ref MediatorRef(const Ref& input, uint32_t recipe, uint8_t kind,
                  uint32_t index, uint32_t aux);
  Ref Combine(const std::vector<Ref>& chosen, bool intersect);
  static const Ref& CheaperOf(const Ref& a, const Ref& b);
  const Ref& EvalNode(uint32_t node);
  Ref EvalAnd(uint32_t node);
  /// Evaluates a table: its MCSC combination when `combine` (Union, or
  /// Intersect when `intersect`), and for ∧ tables its cheapest single
  /// sub-plan covering every child in `*best_single`.
  Ref EvalTable(uint32_t table, bool combine, bool intersect,
                Ref* best_single);
  PlanPtr BuildRef(const Ref& ref);
  void Grow();

  SourceHandle* source_;
  const IpgTemplate* tmpl_;
  IpgOptions options_;
  const std::vector<ConditionPtr>* atoms_;
  double k3_;
  IpgStats stats_;
  std::vector<ConditionPtr> conds_;
  std::vector<SourceQueryEstimate> estimates_;
  std::vector<uint8_t> estimated_;
  std::vector<NodeState> node_states_;
  std::vector<Ref> combo_refs_;
  // Admission stacks shared by nested table evaluations (PR2 on: one slot
  // per cover; off: every entry).
  std::vector<Slot> slots_;
  std::vector<Live> entries_;
  // Scratch of one table's pruning and MCSC step, which never nests.
  std::vector<Live> live_;
  std::vector<Cover> covers_;
  std::vector<SetCoverCandidate> cover_;
  std::vector<Ref> chosen_;
};

/// IPG as one planning run over its own private template: each Plan()
/// builds (or reuses, within this run) the template nodes of SP(node,
/// attrs) and runs the cost pass over them. GenCompactPlanner goes through
/// the same two phases with templates shared per source.
class Ipg {
 public:
  explicit Ipg(SourceHandle* source, IpgOptions options = {});

  /// Best feasible plan for SP(node, attrs, R); nullptr if infeasible.
  /// `node` should be canonical (see Canonicalize); non-canonical input is
  /// accepted but explores a smaller space.
  PlanPtr Plan(const ConditionPtr& node, const AttributeSet& attrs);

  IpgStats stats() const;

 private:
  IpgTemplate template_;
  IpgBuilder builder_;
  IpgCostPass pass_;
};

}  // namespace gencompact

#endif  // GENCOMPACT_PLANNER_IPG_H_
