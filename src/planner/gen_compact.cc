#include "planner/gen_compact.h"

#include <mutex>

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

uint64_t Mix(uint64_t h, uint64_t v) {
  uint64_t x = (h ^ v) * 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

void CollectOccurrences(const ConditionNode& node,
                        PlanTemplateCache::QueryAtoms* out) {
  if (node.is_atom()) {
    uint32_t slot = 0;
    while (slot < out->atoms.size() &&
           !out->atoms[slot]->StructurallyEquals(node)) {
      ++slot;
    }
    if (slot == out->atoms.size()) out->atoms.push_back(node.shared_from_this());
    out->slots.push_back(slot);
    out->occurrences.push_back(&node);
    return;
  }
  for (const ConditionPtr& child : node.children()) {
    CollectOccurrences(*child, out);
  }
}

}  // namespace

PlanTemplateCache::QueryAtoms PlanTemplateCache::CollectAtoms(
    const ConditionPtr& condition) {
  QueryAtoms atoms;
  CollectOccurrences(*condition, &atoms);
  return atoms;
}

PlanTemplateCache::Key PlanTemplateCache::MakeKey(
    const GenCompactOptions& options, const ConditionPtr& condition,
    const AttributeSet& attrs, std::vector<uint32_t> slots) {
  Key key;
  key.options = options;
  key.attrs = attrs;
  key.condition = condition;
  key.slots = std::move(slots);
  const IpgOptions& ipg = options.ipg;
  uint64_t h = Mix(condition->shape_hash(), attrs.bits());
  h = Mix(h, (ipg.pr1 ? 1u : 0u) | (ipg.pr2 ? 2u : 0u) | (ipg.pr3 ? 4u : 0u) |
                 (ipg.safe_combination ? 8u : 0u) |
                 (options.distributive_rewrites ? 16u : 0u) |
                 static_cast<uint64_t>(ipg.mcsc) << 8);
  h = Mix(h, ipg.max_subset_children);
  h = Mix(h, options.max_cts);
  for (uint32_t slot : key.slots) h = Mix(h, slot);
  key.hash = h;
  return key;
}

const PlanTemplateCache::Entry* PlanTemplateCache::FindLocked(
    const Key& key, const Checker& checker) const {
  const auto [first, last] = entries_.equal_range(key.hash);
  for (auto it = first; it != last; ++it) {
    const Key& other = it->second.key;
    if (other.options == key.options && other.attrs == key.attrs &&
        other.slots == key.slots &&
        checker.SameShape(*other.condition, *key.condition)) {
      return &it->second;
    }
  }
  return nullptr;
}

std::shared_ptr<const PlanTemplateCache::Template> PlanTemplateCache::Find(
    const Key& key, const Checker& checker) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const Entry* entry = FindLocked(key, checker);
  if (entry == nullptr) return nullptr;
  hits_.fetch_add(1, std::memory_order_relaxed);
  return entry->plans;
}

std::shared_ptr<const PlanTemplateCache::Template> PlanTemplateCache::Insert(
    Key key, std::shared_ptr<const Template> built, const Checker& checker) {
  builds_.fetch_add(1, std::memory_order_relaxed);
  const std::lock_guard<std::shared_mutex> lock(mu_);
  if (const Entry* entry = FindLocked(key, checker)) return entry->plans;
  const uint64_t hash = key.hash;
  entries_.emplace(hash, Entry{std::move(key), built});
  return built;
}

size_t PlanTemplateCache::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return entries_.size();
}

size_t PlanTemplateCache::memory_bytes() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  size_t bytes = 0;
  for (const auto& [hash, entry] : entries_) {
    bytes += entry.plans->ipg.MemoryBytes() +
             entry.plans->roots.capacity() * sizeof(uint32_t);
  }
  return bytes;
}

Result<PlanPtr> GenCompactPlanner::Plan(const ConditionPtr& condition,
                                        const AttributeSet& attrs) {
  stats_ = RunStats();

  PlanTemplateCache::QueryAtoms atoms = PlanTemplateCache::CollectAtoms(condition);
  PlanTemplateCache::Key key = PlanTemplateCache::MakeKey(
      options_, condition, attrs, atoms.slots);
  PlanTemplateCache* cache = source_->plan_templates();
  const Checker& checker = *source_->checker();
  std::shared_ptr<const PlanTemplateCache::Template> plans =
      cache->Find(key, checker);
  std::vector<ConditionPtr> built_conditions;
  if (plans == nullptr) {
    // The build: the reduced CTs, then IPG's shape decisions over them.
    // One builder for every CT: its memos carry across the CTs, which share
    // most of their sub-conditions.
    auto built = std::make_shared<PlanTemplateCache::Template>();
    IpgBuilder builder(source_, options_.ipg, &built->ipg);
    for (size_t i = 0; i < atoms.occurrences.size(); ++i) {
      builder.AssignSlot(*atoms.occurrences[i], atoms.slots[i]);
    }
    for (const ConditionPtr& ct :
         ReducedCts(condition, options_, &built->rewrite_budget_exhausted)) {
      built->roots.push_back(builder.Node(ct, attrs));
    }
    built->ipg.ShrinkToFit();
    stats_.template_built = true;
    stats_.ipg.checks = builder.checks();
    plans = cache->Insert(std::move(key), built, checker);
    // The first cost pass reuses the conditions the build made.
    if (plans == built) built_conditions = builder.conditions();
  }
  stats_.num_cts = plans->roots.size();
  stats_.rewrite_budget_exhausted = plans->rewrite_budget_exhausted;

  // The cost pass, over every CT.
  IpgCostPass pass(source_, &plans->ipg, options_.ipg, &atoms.atoms);
  pass.AdoptConditions(built_conditions);
  int64_t best = -1;
  double best_cost = 0;
  for (uint32_t root : plans->roots) {
    double cost = 0;
    if (!pass.Plan(root, &cost)) continue;
    if (best < 0 || cost < best_cost) {
      best = root;
      best_cost = cost;
    }
  }
  const size_t checks = stats_.ipg.checks;
  stats_.ipg = pass.stats();
  stats_.ipg.checks = checks;
  stats_.best_cost = best_cost;

  if (best < 0) {
    return Status::NoFeasiblePlan("GenCompact: no feasible plan for SP(" +
                                  condition->ToString() + ")");
  }
  return pass.Build(static_cast<uint32_t>(best));
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
