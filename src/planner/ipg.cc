#include "planner/ipg.h"

#include <algorithm>
#include <bit>
#include <optional>

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

template <typename T>
size_t CapacityBytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

}  // namespace

size_t IpgTemplate::MemoryBytes() const {
  return CapacityBytes(recipes) + CapacityBytes(recipe_children) +
         CapacityBytes(source_queries) + CapacityBytes(candidates) +
         CapacityBytes(guards) + CapacityBytes(masks) + CapacityBytes(tables) +
         CapacityBytes(nodes);
}

void IpgTemplate::ShrinkToFit() {
  recipes.shrink_to_fit();
  recipe_children.shrink_to_fit();
  source_queries.shrink_to_fit();
  candidates.shrink_to_fit();
  guards.shrink_to_fit();
  masks.shrink_to_fit();
  tables.shrink_to_fit();
  nodes.shrink_to_fit();
}

// ---------------------------------------------------------------------------
// The build.

struct IpgBuilder::PendingCandidate {
  IpgTemplate::Candidate::Kind kind;
  uint32_t mask;
  uint32_t target;
  uint32_t mediator;
  std::vector<uint32_t> guard_masks;
};

/// Collects one table's candidates in admission order; Finish() numbers
/// their covers (ascending masks, the order IPG's sub-plan map iterates)
/// and appends the table to the template.
class IpgBuilder::TableBuilder {
 public:
  TableBuilder(AttributeSet work, uint32_t universe)
      : work_(work), universe_(universe) {}

  void Add(IpgTemplate::Candidate::Kind kind, uint32_t mask, uint32_t target,
           uint32_t mediator = 0, std::vector<uint32_t> guard_masks = {}) {
    pending_.push_back(
        PendingCandidate{kind, mask, target, mediator, std::move(guard_masks)});
  }

  /// Ends step 1: later candidates come from recursion.
  void EndDirect() { direct_ = pending_.size(); }

  bool HasPure(uint32_t mask) const {
    return std::any_of(pending_.begin(), pending_.end(),
                       [mask](const PendingCandidate& c) {
                         return c.mask == mask &&
                                c.kind == IpgTemplate::Candidate::Kind::kPure;
                       });
  }

  const std::vector<PendingCandidate>& pending() const { return pending_; }

  uint32_t Finish(IpgTemplate* out) {
    std::vector<uint32_t> masks;
    masks.reserve(pending_.size());
    for (const PendingCandidate& c : pending_) masks.push_back(c.mask);
    std::sort(masks.begin(), masks.end());
    masks.erase(std::unique(masks.begin(), masks.end()), masks.end());
    const auto slot_of = [&masks](uint32_t mask) {
      return static_cast<uint32_t>(
          std::lower_bound(masks.begin(), masks.end(), mask) - masks.begin());
    };

    IpgTemplate::Table table;
    table.work = work_;
    table.universe = universe_;
    table.first = static_cast<uint32_t>(out->candidates.size());
    table.count = static_cast<uint32_t>(pending_.size());
    table.direct = static_cast<uint32_t>(direct_);
    table.first_mask = static_cast<uint32_t>(out->masks.size());
    table.num_masks = static_cast<uint32_t>(masks.size());
    out->masks.insert(out->masks.end(), masks.begin(), masks.end());
    for (const PendingCandidate& c : pending_) {
      IpgTemplate::Candidate candidate;
      candidate.kind = c.kind;
      candidate.slot = slot_of(c.mask);
      candidate.target = c.target;
      candidate.mediator = c.mediator;
      candidate.guard_first = static_cast<uint32_t>(out->guards.size());
      candidate.guard_count = static_cast<uint32_t>(c.guard_masks.size());
      for (uint32_t guard : c.guard_masks) {
        out->guards.push_back(slot_of(guard));
      }
      out->candidates.push_back(candidate);
    }
    out->tables.push_back(table);
    return static_cast<uint32_t>(out->tables.size() - 1);
  }

 private:
  AttributeSet work_;
  uint32_t universe_;
  size_t direct_ = 0;
  std::vector<PendingCandidate> pending_;
};

IpgBuilder::IpgBuilder(SourceHandle* source, const IpgOptions& options,
                       IpgTemplate* out)
    : source_(source), options_(options), out_(out) {}

void IpgBuilder::AssignSlot(const ConditionNode& atom, uint32_t slot) {
  slots_[atom.id()] = slot;
  out_->num_slots = std::max(out_->num_slots, slot + 1);
}

const std::vector<AttributeSet>& IpgBuilder::Exports(const ConditionNode& cond) {
  const auto [it, inserted] = checks_.try_emplace(cond.id(), nullptr);
  if (inserted) it->second = &source_->checker()->Check(cond);
  return *it->second;
}

bool IpgBuilder::Supports(const ConditionNode& cond, const AttributeSet& attrs) {
  for (const AttributeSet& exported : Exports(cond)) {
    if (attrs.IsSubsetOf(exported)) return true;
  }
  return false;
}

const ConditionPtr& IpgBuilder::SubsetCondition(const ConditionNode& node,
                                                uint32_t mask) {
  ConditionPtr& cond = subsets_[SubsetKey{node.id(), mask}];
  if (cond == nullptr) cond = ChildSubsetCondition(node, mask);
  return cond;
}

uint32_t IpgBuilder::Recipe(const ConditionPtr& cond) {
  const auto found = recipes_.find(cond->id());
  if (found != recipes_.end()) return found->second;
  IpgTemplate::Recipe recipe;
  recipe.kind = cond->kind();
  switch (cond->kind()) {
    case ConditionNode::Kind::kTrue:
      break;
    case ConditionNode::Kind::kAtom: {
      const auto [slot, inserted] =
          slots_.try_emplace(cond->id(), out_->num_slots);
      if (inserted) {
        ++out_->num_slots;
        atoms_.resize(out_->num_slots);
        atoms_[slot->second] = cond;
      }
      recipe.slot = slot->second;
      break;
    }
    case ConditionNode::Kind::kAnd:
    case ConditionNode::Kind::kOr: {
      std::vector<uint32_t> children;
      children.reserve(cond->children().size());
      for (const ConditionPtr& child : cond->children()) {
        children.push_back(Recipe(child));
      }
      recipe.first = static_cast<uint32_t>(out_->recipe_children.size());
      recipe.count = static_cast<uint32_t>(children.size());
      out_->recipe_children.insert(out_->recipe_children.end(),
                                   children.begin(), children.end());
      break;
    }
  }
  const uint32_t index = static_cast<uint32_t>(out_->recipes.size());
  out_->recipes.push_back(recipe);
  conditions_.push_back(cond);
  if (cond->is_true()) out_->true_recipe = static_cast<int32_t>(index);
  recipes_.emplace(cond->id(), index);
  return index;
}

uint32_t IpgBuilder::SourceQuery(const ConditionPtr& cond,
                                 const AttributeSet& attrs) {
  const SubQueryKey key(*cond, attrs);
  const auto found = source_queries_.find(key);
  if (found != source_queries_.end()) return found->second;
  const uint32_t index = static_cast<uint32_t>(out_->source_queries.size());
  out_->source_queries.push_back({Recipe(cond), attrs});
  source_queries_.emplace(key, index);
  return index;
}

std::vector<uint32_t> IpgBuilder::SubsetMasks(size_t k,
                                              bool* incomplete) const {
  std::vector<uint32_t> masks;
  if (k <= options_.max_subset_children && k < 31) {
    const uint32_t full = (uint32_t{1} << k) - 1;
    masks.reserve(full);
    for (uint32_t mask = 1; mask <= full; ++mask) masks.push_back(mask);
  } else {
    *incomplete = true;
    if (k < 31) {
      const uint32_t full = (uint32_t{1} << k) - 1;
      masks.push_back(full);
      for (size_t i = 0; i < k; ++i) masks.push_back(uint32_t{1} << i);
    }
  }
  return masks;
}

uint32_t IpgBuilder::Node(const ConditionPtr& node, const AttributeSet& attrs) {
  const SubQueryKey key(*node, attrs);
  const auto found = nodes_.find(key);
  if (found != nodes_.end()) return found->second;

  IpgTemplate::Node out;
  out.cond = Recipe(node);
  out.attrs = attrs;
  // Pure plan; with PR1 it short-circuits the whole search (it is optimal
  // under the cost model: any impure plan uses at least as many source
  // queries and transfers at least as much data).
  if (Supports(*node, attrs)) {
    out.pure = static_cast<int32_t>(SourceQuery(node, attrs));
  }
  if (out.pure < 0 || !options_.pr1) {
    // The download-and-postprocess plan (Algorithm 6.1's plan_impure).
    const std::optional<AttributeSet> cond_attrs =
        AttrsOf(*node, source_->schema());
    if (cond_attrs.has_value()) {
      const AttributeSet needed = attrs.Union(*cond_attrs);
      const ConditionPtr true_cond = ConditionNode::True();
      if (Supports(*true_cond, needed)) {
        out.download = static_cast<int32_t>(SourceQuery(true_cond, needed));
      }
    }
    switch (node->kind()) {
      case ConditionNode::Kind::kTrue:
      case ConditionNode::Kind::kAtom:
        break;  // leaves: no further impure plans
      case ConditionNode::Kind::kOr:
        BuildOr(node, &out);
        break;
      case ConditionNode::Kind::kAnd:
        BuildAnd(node, &out);
        break;
    }
  }
  const uint32_t index = static_cast<uint32_t>(out_->nodes.size());
  out_->nodes.push_back(out);
  nodes_.emplace(key, index);
  return index;
}

void IpgBuilder::BuildOr(const ConditionPtr& node, IpgTemplate::Node* out) {
  using Kind = IpgTemplate::Candidate::Kind;
  out->body = IpgTemplate::Node::Body::kOr;
  const std::vector<ConditionPtr>& children = node->children();
  const size_t k = children.size();
  if (k >= 31) {
    out->incomplete = true;
    out->body_infeasible = true;
    return;
  }
  const AttributeSet attrs = out->attrs;
  TableBuilder table(attrs, (uint32_t{1} << k) - 1);
  // Step 1 (Figure 5, lines 1-7): supported subsets, then recursive plans
  // for the children no pure sub-plan covers (PR1).
  for (uint32_t mask : SubsetMasks(k, &out->incomplete)) {
    const ConditionPtr& sub_cond = SubsetCondition(*node, mask);
    if (Supports(*sub_cond, attrs)) {
      table.Add(Kind::kPure, mask, SourceQuery(sub_cond, attrs));
    }
  }
  table.EndDirect();
  for (size_t i = 0; i < k; ++i) {
    const uint32_t mask = uint32_t{1} << i;
    if (options_.pr1 && table.HasPure(mask)) continue;
    table.Add(Kind::kRecurse, mask, Node(children[i], attrs));
  }
  out->table = static_cast<int32_t>(table.Finish(out_));
}

void IpgBuilder::BuildAnd(const ConditionPtr& node, IpgTemplate::Node* out) {
  out->body = IpgTemplate::Node::Body::kAnd;
  const std::vector<ConditionPtr>& children = node->children();
  const size_t k = children.size();
  if (k >= 31) {
    out->incomplete = true;
    out->body_infeasible = true;
    return;
  }
  // Per-child attribute sets (for MaxEval).
  std::vector<AttributeSet> child_attrs(k);
  for (size_t i = 0; i < k; ++i) {
    const std::optional<AttributeSet> ca =
        AttrsOf(*children[i], source_->schema());
    if (!ca.has_value()) {
      out->body_infeasible = true;
      return;
    }
    child_attrs[i] = *ca;
  }
  const std::vector<uint32_t> masks = SubsetMasks(k, &out->incomplete);
  const AttributeSet attrs = out->attrs;
  out->table = static_cast<int32_t>(
      BuildAndTable(node, attrs, child_attrs, masks, &out->incomplete));
  if (!options_.safe_combination) return;
  // Safe mode (DESIGN.md): intersected sub-plans carry A + Attr(Cond(n)) so
  // the intersection of projections is exact; the mediator projects back.
  const uint32_t universe = (uint32_t{1} << k) - 1;
  const AttributeSet augmented =
      attrs.Union(SubsetAttrs(child_attrs, universe));
  if (augmented == attrs) return;
  Recipe(ConditionNode::True());
  out->augmented = static_cast<int32_t>(
      BuildAndTable(node, augmented, child_attrs, masks, &out->incomplete));
}

uint32_t IpgBuilder::BuildAndTable(const ConditionPtr& node,
                                   const AttributeSet& work_attrs,
                                   const std::vector<AttributeSet>& child_attrs,
                                   const std::vector<uint32_t>& masks,
                                   bool* incomplete) {
  using Kind = IpgTemplate::Candidate::Kind;
  const std::vector<ConditionPtr>& children = node->children();
  const size_t k = children.size();
  TableBuilder table(work_attrs, (uint32_t{1} << k) - 1);

  // Step 1a (Figure 6, lines 3-9): supported conjunctions of child subsets,
  // plus MaxEval extensions - children evaluable at the mediator from the
  // attributes the source query already exports.
  for (uint32_t mask : masks) {
    const ConditionPtr& sub_cond = SubsetCondition(*node, mask);
    bool added_pure = false;
    for (const AttributeSet& exported : Exports(*sub_cond)) {
      if (!work_attrs.IsSubsetOf(exported)) continue;
      if (!added_pure) {
        table.Add(Kind::kPure, mask, SourceQuery(sub_cond, work_attrs));
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
        *incomplete = true;
        continue;
      }
      // Nonempty M subsets of nadd via the subset-stepping trick.
      for (uint32_t m_sub = nadd; m_sub != 0; m_sub = (m_sub - 1) & nadd) {
        const AttributeSet inner =
            work_attrs.Union(SubsetAttrs(child_attrs, m_sub));
        table.Add(Kind::kMaxEval, mask | m_sub, SourceQuery(sub_cond, inner),
                  Recipe(SubsetCondition(*node, m_sub)));
      }
    }
  }
  table.EndDirect();

  // Step 1b (lines 10-13): recursive plans for single children, optionally
  // evaluating sibling subsets at the mediator on their results. PR1
  // (N'' == N') and PR3 (N' strict subset of N'') skip the recursion when a
  // pure sub-plan survived step 1a at N'' — certainly when it was the only
  // step-1a candidate there (or PR2 is off), otherwise only if it wins PR2,
  // which the cost pass decides.
  std::unordered_map<uint32_t, size_t> direct_at;
  std::vector<uint32_t> pure_masks;
  for (const PendingCandidate& c : table.pending()) {
    ++direct_at[c.mask];
    if (c.kind == Kind::kPure) pure_masks.push_back(c.mask);
  }
  const auto certain = [&](uint32_t pure_mask) {
    return !options_.pr2 || direct_at[pure_mask] == 1;
  };

  for (size_t i = 0; i < k; ++i) {
    const uint32_t self = uint32_t{1} << i;
    for (uint32_t mask : masks) {
      if ((mask & self) == 0) continue;
      bool skip = false;
      std::vector<uint32_t> guard_masks;
      for (uint32_t pm : pure_masks) {
        if ((mask & pm) != mask) continue;  // need mask subset of pm
        if (!((pm == mask && options_.pr1) || (pm != mask && options_.pr3))) {
          continue;
        }
        if (certain(pm)) {
          skip = true;
          break;
        }
        guard_masks.push_back(pm);
      }
      if (skip) continue;
      const uint32_t rest = mask & ~self;
      const AttributeSet requested =
          work_attrs.Union(SubsetAttrs(child_attrs, rest));
      const uint32_t child = Node(children[i], requested);
      if (rest == 0) {
        table.Add(Kind::kRecurse, mask, child, 0, std::move(guard_masks));
      } else {
        table.Add(Kind::kRecurseSp, mask, child,
                  Recipe(SubsetCondition(*node, rest)), std::move(guard_masks));
      }
    }
  }
  return table.Finish(out_);
}

// ---------------------------------------------------------------------------
// The cost pass.

/// A sub-plan of the run, described (not built) with its PlanCost, its
/// OutputRows (only when k3 > 0) and its plan-node count (CheaperOf's tie
/// break).
struct IpgCostPass::Ref {
  enum Kind : uint8_t {
    kNone,         ///< no feasible plan
    kSourceQuery,  ///< SQ(source query `index`)
    kDownload,     ///< node `index`'s download plan
    kCandidate,    ///< candidate `index` of table `aux` (a mediator SP)
    kUnion,        ///< ∪ of combo_refs_[index, index + aux)
    kIntersect,    ///< ∩ of combo_refs_[index, index + aux)
    kProject,      ///< SP(true, node `aux`'s attrs, combo_refs_[index])
  };
  uint8_t kind = kNone;
  uint32_t index = 0;
  uint32_t aux = 0;
  double cost = 0.0;
  double rows = 0.0;
  size_t size = 0;
};

struct IpgCostPass::Live {
  uint32_t slot;
  uint32_t mask;
  Ref ref;
};

/// One cover of a table: the counting sort's bucket start, and PR3's view
/// of it (its cheapest sub-plan and the cheapest over its strict supersets).
struct IpgCostPass::Cover {
  uint32_t start = 0;
  bool present = false;
  bool dominated = false;  ///< some strict superset has a sub-plan
  double cheapest = 0.0;
  double superset_cheapest = 0.0;
};

struct IpgCostPass::NodeState {
  bool done = false;
  Ref result;
};

struct IpgCostPass::Slot {
  bool present = false;
  bool pure = false;
  bool pure_direct = false;  ///< a pure sub-plan survived step 1a here
  Ref ref;
};

IpgCostPass::IpgCostPass(SourceHandle* source, const IpgTemplate* tmpl,
                         const IpgOptions& options,
                         const std::vector<ConditionPtr>* atoms)
    : source_(source),
      tmpl_(tmpl),
      options_(options),
      atoms_(atoms),
      k3_(source->cost_model().mediator_k3()) {}

IpgCostPass::~IpgCostPass() = default;

void IpgCostPass::Grow() {
  conds_.resize(tmpl_->recipes.size());
  estimates_.resize(tmpl_->source_queries.size());
  estimated_.resize(tmpl_->source_queries.size(), 0);
  node_states_.resize(tmpl_->nodes.size());
}

void IpgCostPass::AdoptConditions(const std::vector<ConditionPtr>& conditions) {
  Grow();
  for (size_t i = 0; i < conditions.size() && i < conds_.size(); ++i) {
    if (conds_[i] == nullptr) conds_[i] = conditions[i];
  }
}

const ConditionPtr& IpgCostPass::Cond(uint32_t recipe) {
  if (conds_[recipe] != nullptr) return conds_[recipe];
  const IpgTemplate::Recipe& r = tmpl_->recipes[recipe];
  ConditionPtr cond;
  switch (r.kind) {
    case ConditionNode::Kind::kTrue:
      cond = ConditionNode::True();
      break;
    case ConditionNode::Kind::kAtom:
      cond = (*atoms_)[r.slot];
      break;
    case ConditionNode::Kind::kAnd:
    case ConditionNode::Kind::kOr: {
      std::vector<ConditionPtr> children;
      children.reserve(r.count);
      for (uint32_t i = 0; i < r.count; ++i) {
        children.push_back(Cond(tmpl_->recipe_children[r.first + i]));
      }
      cond = ConditionNode::Connector(r.kind, std::move(children));
      break;
    }
  }
  conds_[recipe] = std::move(cond);
  return conds_[recipe];
}

const SourceQueryEstimate& IpgCostPass::Estimate(uint32_t source_query) {
  if (!estimated_[source_query]) {
    const IpgTemplate::SourceQuery& sq = tmpl_->source_queries[source_query];
    estimates_[source_query] =
        source_->cost_model().EstimateSourceQuery(*Cond(sq.cond), sq.attrs);
    estimated_[source_query] = 1;
    ++stats_.cost_estimates;
  }
  return estimates_[source_query];
}

double IpgCostPass::EstimateRows(uint32_t recipe) {
  return source_->cost_model().EstimateRows(*Cond(recipe));
}

IpgCostPass::Ref IpgCostPass::SourceQueryRef(uint32_t source_query) {
  const SourceQueryEstimate& est = Estimate(source_query);
  Ref ref;
  ref.kind = Ref::kSourceQuery;
  ref.index = source_query;
  ref.cost = est.cost;
  ref.rows = est.rows;
  ref.size = 1;
  return ref;
}

// PlanCost / OutputRows of SP(recipe, ·, input), as CostModel computes them.
IpgCostPass::Ref IpgCostPass::MediatorRef(const Ref& input, uint32_t recipe,
                                          uint8_t kind, uint32_t index,
                                          uint32_t aux) {
  Ref ref;
  ref.kind = kind;
  ref.index = index;
  ref.aux = aux;
  ref.cost = input.cost;
  if (k3_ > 0) {
    ref.cost += k3_ * input.rows;
    ref.rows = std::min(input.rows, EstimateRows(recipe));
  }
  ref.size = 1 + input.size;
  return ref;
}

// PlanCost / OutputRows of UnionOf / IntersectOf(chosen).
IpgCostPass::Ref IpgCostPass::Combine(const std::vector<Ref>& chosen,
                                      bool intersect) {
  if (chosen.size() == 1) return chosen.front();  // a set op of one collapses
  Ref ref;
  ref.kind = intersect ? Ref::kIntersect : Ref::kUnion;
  ref.index = static_cast<uint32_t>(combo_refs_.size());
  ref.aux = static_cast<uint32_t>(chosen.size());
  double cost = 0;
  double rows = intersect ? -1 : 0;
  size_t size = 1;
  for (const Ref& child : chosen) {
    cost += child.cost;
    if (k3_ > 0) {
      cost += k3_ * child.rows;
      rows = !intersect ? rows + child.rows
                        : (rows < 0 ? child.rows : std::min(rows, child.rows));
    }
    size += child.size;
  }
  ref.cost = cost;
  ref.rows = k3_ > 0 && rows >= 0 ? rows : 0;
  ref.size = size;
  combo_refs_.insert(combo_refs_.end(), chosen.begin(), chosen.end());
  return ref;
}

// CheaperOf(a, b): the lower-cost plan; on a tie, the smaller one.
const IpgCostPass::Ref& IpgCostPass::CheaperOf(const Ref& a, const Ref& b) {
  if (a.kind == Ref::kNone) return b;
  if (b.kind == Ref::kNone) return a;
  if (a.cost != b.cost) return a.cost < b.cost ? a : b;
  return a.size <= b.size ? a : b;
}

bool IpgCostPass::Plan(uint32_t node, double* cost) {
  Grow();
  ++stats_.calls;
  const Ref result = EvalNode(node);
  if (result.kind == Ref::kNone) return false;
  *cost = result.cost;
  return true;
}

PlanPtr IpgCostPass::Build(uint32_t node) {
  return BuildRef(node_states_[node].result);
}

const IpgCostPass::Ref& IpgCostPass::EvalNode(uint32_t index) {
  if (node_states_[index].done) return node_states_[index].result;
  const IpgTemplate::Node& node = tmpl_->nodes[index];
  Ref best;
  if (node.pure >= 0 && options_.pr1) {
    best = SourceQueryRef(static_cast<uint32_t>(node.pure));
  } else {
    if (node.download >= 0) {
      best = MediatorRef(SourceQueryRef(static_cast<uint32_t>(node.download)),
                         node.cond, Ref::kDownload, index, 0);
    }
    if (node.incomplete) stats_.incomplete = true;
    if (!node.body_infeasible) {
      switch (node.body) {
        case IpgTemplate::Node::Body::kLeaf:
          break;
        case IpgTemplate::Node::Body::kOr: {
          const Ref combined =
              EvalTable(static_cast<uint32_t>(node.table), /*combine=*/true,
                        /*intersect=*/false, nullptr);
          best = CheaperOf(combined, best);
          break;
        }
        case IpgTemplate::Node::Body::kAnd: {
          const Ref combined = EvalAnd(index);
          best = CheaperOf(combined, best);
          break;
        }
      }
    }
    if (node.pure >= 0) {
      const Ref pure = SourceQueryRef(static_cast<uint32_t>(node.pure));
      best = CheaperOf(pure, best);
    }
  }
  node_states_[index].done = true;
  node_states_[index].result = best;
  return node_states_[index].result;
}

IpgCostPass::Ref IpgCostPass::EvalAnd(uint32_t index) {
  const IpgTemplate::Node& node = tmpl_->nodes[index];
  // A single sub-plan covering every child is a pure mediator-selection
  // chain: exact under set semantics in both combination modes. Otherwise
  // MCSC intersects sub-plans (Figure 6, lines 14-20) — in safe mode from
  // the A ∪ Attr(Cond(n)) table, projected back to A.
  const bool augmented = node.augmented >= 0;
  Ref best_single;
  Ref combined = EvalTable(static_cast<uint32_t>(node.table),
                           /*combine=*/!augmented, /*intersect=*/true,
                           &best_single);
  if (augmented) {
    const Ref multi = EvalTable(static_cast<uint32_t>(node.augmented),
                                /*combine=*/true, /*intersect=*/true, nullptr);
    combined = Ref();
    if (multi.kind != Ref::kNone) {
      const uint32_t inner = static_cast<uint32_t>(combo_refs_.size());
      combo_refs_.push_back(multi);
      combined = MediatorRef(multi, static_cast<uint32_t>(tmpl_->true_recipe),
                             Ref::kProject, inner, index);
    }
  }
  return CheaperOf(best_single, combined);
}

IpgCostPass::Ref IpgCostPass::EvalTable(uint32_t table_index, bool combine,
                                        bool intersect, Ref* best_single) {
  const IpgTemplate::Table table = tmpl_->tables[table_index];
  const bool pr2 = options_.pr2;
  // Admission (IPG's Admit): with PR2 one entry per cover, replaced by a
  // cheaper candidate (a pure one also wins ties); without PR2 every
  // candidate stays. slots_ and entries_ are stacks: recursion below
  // pushes the tables of child nodes on top of this one.
  const size_t slot_base = slots_.size();
  slots_.resize(slot_base + table.num_masks);
  const size_t entry_base = entries_.size();
  for (uint32_t j = 0; j < table.count; ++j) {
    if (j == table.direct && pr2) {
      for (size_t s = slot_base; s < slot_base + table.num_masks; ++s) {
        slots_[s].pure_direct = slots_[s].present && slots_[s].pure;
      }
    }
    const uint32_t candidate_index = table.first + j;
    const IpgTemplate::Candidate& c = tmpl_->candidates[candidate_index];
    bool skip = false;
    for (uint32_t g = 0; g < c.guard_count && !skip; ++g) {
      skip = slots_[slot_base + tmpl_->guards[c.guard_first + g]].pure_direct;
    }
    if (skip) continue;
    Ref ref;
    bool pure = false;
    switch (c.kind) {
      case IpgTemplate::Candidate::Kind::kPure:
        ref = SourceQueryRef(c.target);
        pure = true;
        break;
      case IpgTemplate::Candidate::Kind::kMaxEval:
        ref = MediatorRef(SourceQueryRef(c.target), c.mediator,
                          Ref::kCandidate, candidate_index, table_index);
        break;
      case IpgTemplate::Candidate::Kind::kRecurse:
        ++stats_.calls;
        ref = EvalNode(c.target);
        break;
      case IpgTemplate::Candidate::Kind::kRecurseSp: {
        ++stats_.calls;
        const Ref sub = EvalNode(c.target);
        if (sub.kind != Ref::kNone) {
          ref = MediatorRef(sub, c.mediator, Ref::kCandidate, candidate_index,
                            table_index);
        }
        break;
      }
    }
    if (ref.kind == Ref::kNone) continue;
    ++stats_.total_subplans;
    if (!pr2) {
      entries_.push_back(Live{c.slot, 0, ref});
      continue;
    }
    Slot& slot = slots_[slot_base + c.slot];
    if (!slot.present) {
      slot.present = true;
      slot.pure = pure;
      slot.ref = ref;
    } else if (ref.cost < slot.ref.cost ||
               (ref.cost == slot.ref.cost && pure && !slot.pure)) {
      slot.pure = pure;
      slot.ref = ref;
    }
  }

  // The surviving sub-plans in IPG's order: ascending cover, then
  // admission order (without PR2, a counting sort of every entry by cover).
  live_.clear();
  if (pr2) {
    for (uint32_t s = 0; s < table.num_masks; ++s) {
      const Slot& slot = slots_[slot_base + s];
      if (slot.present) live_.push_back(Live{s, 0, slot.ref});
    }
  } else {
    covers_.assign(table.num_masks + 1, Cover{});
    for (size_t i = entry_base; i < entries_.size(); ++i) {
      ++covers_[entries_[i].slot + 1].start;
    }
    for (uint32_t s = 0; s < table.num_masks; ++s) {
      covers_[s + 1].start += covers_[s].start;
    }
    live_.resize(entries_.size() - entry_base);
    for (size_t i = entry_base; i < entries_.size(); ++i) {
      live_[covers_[entries_[i].slot].start++] = entries_[i];
    }
  }
  slots_.resize(slot_base);
  entries_.resize(entry_base);
  for (Live& e : live_) e.mask = tmpl_->masks[table.first_mask + e.slot];

  // PR3: drop a sub-plan when a sub-plan covering a strict superset of its
  // children costs no more (Section 6.3), judged against each cover's
  // cheapest sub-plan before any is dropped. A strict superset's mask is
  // larger, so its slot comes later.
  if (options_.pr3) {
    covers_.assign(table.num_masks, Cover{});
    for (const Live& e : live_) {
      Cover& cover = covers_[e.slot];
      if (!cover.present || e.ref.cost < cover.cheapest) {
        cover.cheapest = e.ref.cost;
      }
      cover.present = true;
    }
    const uint32_t* masks = &tmpl_->masks[table.first_mask];
    for (uint32_t s = 0; s < table.num_masks; ++s) {
      Cover& cover = covers_[s];
      for (uint32_t t = s + 1; t < table.num_masks; ++t) {
        const Cover& superset = covers_[t];
        if (!superset.present || (masks[s] & masks[t]) != masks[s]) continue;
        if (!cover.dominated || superset.cheapest < cover.superset_cheapest) {
          cover.superset_cheapest = superset.cheapest;
        }
        cover.dominated = true;
      }
    }
    size_t kept = 0;
    for (const Live& e : live_) {
      const Cover& cover = covers_[e.slot];
      if (cover.dominated && cover.superset_cheapest <= e.ref.cost) continue;
      live_[kept++] = e;
    }
    live_.resize(kept);
  }

  if (best_single != nullptr) {
    for (const Live& e : live_) {
      if (e.mask == table.universe) *best_single = CheaperOf(*best_single, e.ref);
    }
  }
  if (!combine) return Ref();

  // MCSC over the survivors (Section 6.4.2).
  cover_.clear();
  for (const Live& e : live_) cover_.push_back({e.mask, e.ref.cost});
  ++stats_.mcsc_invocations;
  stats_.max_subplans = std::max(stats_.max_subplans, cover_.size());
  const SetCoverResult cover =
      SolveMinCostSetCover(table.universe, cover_, options_.mcsc);
  if (!cover.found) return Ref();
  if (!cover.optimal) stats_.incomplete = true;
  chosen_.clear();
  for (int index : cover.chosen) {
    chosen_.push_back(live_[static_cast<size_t>(index)].ref);
  }
  return Combine(chosen_, intersect);
}

PlanPtr IpgCostPass::BuildRef(const Ref& ref) {
  const auto source_query = [this](uint32_t index) {
    const IpgTemplate::SourceQuery& sq = tmpl_->source_queries[index];
    return PlanNode::SourceQuery(Cond(sq.cond), sq.attrs);
  };
  switch (ref.kind) {
    case Ref::kNone:
      return nullptr;
    case Ref::kSourceQuery:
      return source_query(ref.index);
    case Ref::kDownload: {
      const IpgTemplate::Node& node = tmpl_->nodes[ref.index];
      return PlanNode::MediatorSp(
          Cond(node.cond), node.attrs,
          source_query(static_cast<uint32_t>(node.download)));
    }
    case Ref::kCandidate: {
      const IpgTemplate::Candidate& c = tmpl_->candidates[ref.index];
      const AttributeSet& work = tmpl_->tables[ref.aux].work;
      PlanPtr input = c.kind == IpgTemplate::Candidate::Kind::kMaxEval
                          ? source_query(c.target)
                          : BuildRef(node_states_[c.target].result);
      return PlanNode::MediatorSp(Cond(c.mediator), work, std::move(input));
    }
    case Ref::kUnion:
    case Ref::kIntersect: {
      std::vector<PlanPtr> children;
      children.reserve(ref.aux);
      for (uint32_t i = 0; i < ref.aux; ++i) {
        children.push_back(BuildRef(combo_refs_[ref.index + i]));
      }
      return ref.kind == Ref::kUnion ? PlanNode::UnionOf(std::move(children))
                                     : PlanNode::IntersectOf(std::move(children));
    }
    case Ref::kProject:
      return PlanNode::MediatorSp(Cond(static_cast<uint32_t>(tmpl_->true_recipe)),
                                  tmpl_->nodes[ref.aux].attrs,
                                  BuildRef(combo_refs_[ref.index]));
  }
  return nullptr;
}

// ---------------------------------------------------------------------------

Ipg::Ipg(SourceHandle* source, IpgOptions options)
    : builder_(source, options, &template_),
      pass_(source, &template_, options, &builder_.atoms()) {}

PlanPtr Ipg::Plan(const ConditionPtr& node, const AttributeSet& attrs) {
  const uint32_t root = builder_.Node(node, attrs);
  pass_.AdoptConditions(builder_.conditions());
  double cost = 0;
  if (!pass_.Plan(root, &cost)) return nullptr;
  return pass_.Build(root);
}

IpgStats Ipg::stats() const {
  IpgStats stats = pass_.stats();
  stats.checks = builder_.checks();
  return stats;
}

}  // namespace gencompact
