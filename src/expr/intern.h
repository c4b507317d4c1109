#ifndef GENCOMPACT_EXPR_INTERN_H_
#define GENCOMPACT_EXPR_INTERN_H_

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "expr/condition.h"

namespace gencompact {

/// Process-wide hash-consing pool for condition trees.
///
/// Every ConditionNode factory (True / Atom / And / Or / Connector) routes
/// through Intern(): structurally equal trees come back as the *same*
/// ConditionPtr, so structural equality is pointer comparison and hashing is
/// a field load of the precomputed 64-bit fingerprint. Children are interned
/// before their parents (factories bottom out at leaves), which keeps the
/// pool's equality probe shallow: two candidate parents are equal iff their
/// kind/atom match and their child pointers match element-wise.
///
/// The pool is sharded by fingerprint and each shard independently locked,
/// mirroring the plan cache: planning runs concurrently and factories are
/// called from every client thread. Nodes are held by weak_ptr; the custom
/// deleter unlinks a node from its shard when the last external reference
/// drops, so the pool never pins memory (no leaks under ASan). Node ids are
/// monotonically increasing and never reused, so downstream caches keyed by
/// ConditionId can never confuse a dead condition with a new one.
class ConditionInterner {
 public:
  /// The process-wide pool (leaky singleton: node deleters registered in
  /// static-storage ConditionPtrs may run during program teardown).
  static ConditionInterner& Global();

  /// Returns the unique node for the given structure, creating it if absent.
  /// When interning is disabled (bench ablation), builds a fresh node with a
  /// fresh id and does not touch the pool.
  ConditionPtr Intern(ConditionNode::Kind kind, AtomicCondition atom,
                      std::vector<ConditionPtr> children);

  struct Stats {
    size_t live_nodes = 0;  ///< entries currently in the pool
    size_t hits = 0;        ///< Intern() calls answered with an existing node
    size_t misses = 0;      ///< Intern() calls that created a node
  };
  Stats stats() const;

  /// Hash-consing on/off switch, for the interning ablation benchmark only:
  /// with it off, factories build fresh (still fingerprinted, uniquely
  /// numbered) nodes, so identity-keyed caches degrade to per-pointer
  /// behavior. Not meant to be toggled while other threads build conditions.
  static bool enabled();
  static void set_enabled(bool on);

 private:
  friend class ScopedInterningDisabled;

  struct Entry {
    const ConditionNode* node = nullptr;  // bucket identity for removal
    std::weak_ptr<const ConditionNode> weak;
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, std::vector<Entry>> buckets;
    size_t hits = 0;
    size_t misses = 0;
  };

  // The deleter unlinks under the shard lock, then deletes *outside* it:
  // destroying a node drops its children, whose own deleters re-enter the
  // pool (possibly the same shard).
  struct Unlink {
    void operator()(const ConditionNode* node) const;
  };

  Shard& ShardFor(uint64_t fingerprint) {
    return shards_[(fingerprint >> 56) % kNumShards];
  }
  void Remove(const ConditionNode* node);

  static constexpr size_t kNumShards = 16;
  Shard shards_[kNumShards];
};

/// RAII guard disabling hash-consing for the enclosing scope. Bench/test
/// only (the interning ablation and the interned-vs-not parity test); do not
/// use while other threads construct conditions.
class ScopedInterningDisabled {
 public:
  ScopedInterningDisabled() : was_enabled_(ConditionInterner::enabled()) {
    ConditionInterner::set_enabled(false);
  }
  ~ScopedInterningDisabled() { ConditionInterner::set_enabled(was_enabled_); }
  ScopedInterningDisabled(const ScopedInterningDisabled&) = delete;
  ScopedInterningDisabled& operator=(const ScopedInterningDisabled&) = delete;

 private:
  bool was_enabled_;
};

/// A set of conditions under structural equality, allocation-light: bucketed
/// by fingerprint, verified by StructurallyEquals (a pointer comparison when
/// both sides are interned). Correct in both interning modes, which is what
/// the rewrite closure and simplify's idempotence pass need — the ablation
/// benchmark must not change their results.
class ConditionSet {
 public:
  /// Inserts `cond`; returns true iff it was not already present.
  bool Insert(const ConditionPtr& cond) {
    std::vector<ConditionPtr>& bucket = buckets_[cond->fingerprint()];
    for (const ConditionPtr& existing : bucket) {
      if (existing == cond || existing->StructurallyEquals(*cond)) return false;
    }
    bucket.push_back(cond);
    return true;
  }

  size_t size() const {
    size_t n = 0;
    for (const auto& [fp, bucket] : buckets_) n += bucket.size();
    return n;
  }

 private:
  std::unordered_map<uint64_t, std::vector<ConditionPtr>> buckets_;
};

}  // namespace gencompact

#endif  // GENCOMPACT_EXPR_INTERN_H_
