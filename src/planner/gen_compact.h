#ifndef GENCOMPACT_PLANNER_GEN_COMPACT_H_
#define GENCOMPACT_PLANNER_GEN_COMPACT_H_

#include <atomic>
#include <memory>
#include <shared_mutex>
#include <unordered_map>

#include "planner/ipg.h"
#include "planner/strategy.h"
#include "rewrite/rewrite_engine.h"

namespace gencompact {

struct GenCompactOptions {
  IpgOptions ipg;

  /// GenCompact's reduced rewrite module fires only the distributive rule
  /// (Section 6.1); commutativity lives in the description closure (applied
  /// by SourceHandle) and associativity/copy are absorbed by IPG. Disabling
  /// restricts planning to the original canonical CT.
  bool distributive_rewrites = true;

  /// Budget on the number of (canonicalized, deduplicated) CTs explored.
  size_t max_cts = 64;

  bool operator==(const GenCompactOptions&) const = default;
};

/// GenCompact's plan templates of one source, one per query shape: the
/// reduced CTs of a query and IPG's sub-plan space over them (IpgTemplate),
/// built once and re-costed for every query of the shape.
///
/// The key is exact: the GenCompactOptions, the projection, the condition's
/// shape as the source's Checker defines it (constants erased to their type
/// unless the grammar pins them with a literal), and which atom occurrences
/// are one condition (the rewrite deduplicates equal CTs and IPG shares
/// equal sub-searches, so a template built where two atoms coincide does
/// not serve a query where they differ, nor the reverse). Entries are
/// bucketed by a hash and confirmed by an exact walk against the query the
/// entry was built from, which the entry keeps alive.
///
/// Thread-safe like the Checker's memo: shared lock on lookups, exclusive
/// on inserts; of two racing builds of one key the first inserted is kept.
/// It grows with distinct keys and lives as long as the SourceHandle, so a
/// description reload (a new handle) drops it. Templates hold no cost: the
/// health penalty, result bound and k3 are read by every cost pass.
class PlanTemplateCache {
 public:
  struct Template {
    IpgTemplate ipg;
    std::vector<uint32_t> roots;  ///< the IPG node of each reduced CT
    bool rewrite_budget_exhausted = false;
  };

  /// The atoms of a query in preorder, numbered by structural equality:
  /// slots[i] is the slot of the i-th atom occurrence, atoms[s] the first
  /// occurrence of slot s.
  struct QueryAtoms {
    std::vector<uint32_t> slots;
    std::vector<const ConditionNode*> occurrences;
    std::vector<ConditionPtr> atoms;
  };
  static QueryAtoms CollectAtoms(const ConditionPtr& condition);

  struct Key {
    GenCompactOptions options;
    AttributeSet attrs;
    ConditionPtr condition;
    std::vector<uint32_t> slots;
    uint64_t hash = 0;
  };
  static Key MakeKey(const GenCompactOptions& options,
                     const ConditionPtr& condition, const AttributeSet& attrs,
                     std::vector<uint32_t> slots);

  /// The template of `key`'s shape, or null (counted as a hit when found).
  std::shared_ptr<const Template> Find(const Key& key,
                                       const Checker& checker) const;

  /// Stores a freshly built template; returns the one kept (an equal key
  /// inserted first by a racing build wins). Counts a build.
  std::shared_ptr<const Template> Insert(Key key,
                                         std::shared_ptr<const Template> built,
                                         const Checker& checker);

  size_t size() const;
  uint64_t builds() const { return builds_.load(std::memory_order_relaxed); }
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  /// Heap bytes of the templates' arrays.
  size_t memory_bytes() const;

 private:
  struct Entry {
    Key key;
    std::shared_ptr<const Template> plans;
  };
  const Entry* FindLocked(const Key& key, const Checker& checker) const;

  mutable std::shared_mutex mu_;
  std::unordered_multimap<uint64_t, Entry> entries_;
  std::atomic<uint64_t> builds_{0};
  mutable std::atomic<uint64_t> hits_{0};
};

/// GenCompact (Section 6): the paper's primary contribution. For each
/// canonical CT produced by the reduced rewrite module, IPG returns the
/// single best feasible plan; the overall best is returned.
///
/// Plan() runs in two phases, always: it finds the query's template in the
/// source's PlanTemplateCache or builds it (rewrites plus IPG's shape
/// decisions, asking Check), then runs IPG's cost pass over it with the
/// query's own constants and builds the winning plan. The plan, its cost
/// and the IPG counters equal those of a build from this very query: a
/// template hit plans exactly what a fresh plan would.
class GenCompactPlanner : public PlannerStrategy {
 public:
  explicit GenCompactPlanner(SourceHandle* source, GenCompactOptions options = {})
      : source_(source), options_(options) {}

  std::string name() const override { return "GenCompact"; }

  Result<PlanPtr> Plan(const ConditionPtr& condition,
                       const AttributeSet& attrs) override;

  /// Constrained planning for fault recovery. IPG returns only the single
  /// best plan, so the avoidance path switches to EPG's Choice plan space
  /// over the same reduced CT set and picks the cheapest alternative that
  /// routes around every avoided sub-query. Slower than Plan(), but this
  /// only runs after a sub-query has already failed its retries.
  Result<PlanPtr> PlanAvoiding(const ConditionPtr& condition,
                               const AttributeSet& attrs,
                               const SubQueryAvoidSet& avoid) override;

  struct RunStats {
    size_t num_cts = 0;
    IpgStats ipg;  ///< checks: the build's (0 on a template hit)
    bool rewrite_budget_exhausted = false;
    double best_cost = 0.0;
    bool template_built = false;  ///< false: the plan reused a template
  };
  const RunStats& stats() const { return stats_; }

 private:
  SourceHandle* source_;
  GenCompactOptions options_;
  RunStats stats_;
};

}  // namespace gencompact

#endif  // GENCOMPACT_PLANNER_GEN_COMPACT_H_
