#ifndef GENCOMPACT_PLAN_SUB_QUERY_KEY_H_
#define GENCOMPACT_PLAN_SUB_QUERY_KEY_H_

#include <cstddef>
#include <cstdint>
#include <unordered_set>

#include "expr/condition.h"
#include "schema/attribute_set.h"

namespace gencompact {

/// POD identity of one sub-query SP(C, A, ·): the interned condition id and
/// the projection bitset. Built with a field load and a bit copy — no
/// allocation, no rendering — so every layer that dedups or memoizes
/// sub-queries (IPG/EPG memo tables, the executor's per-execution fetch
/// dedup) keys on this instead of a concatenated string.
struct SubQueryKey {
  ConditionId condition_id = 0;
  uint64_t attrs_bits = 0;

  SubQueryKey() = default;
  SubQueryKey(const ConditionNode& condition, const AttributeSet& attrs)
      : condition_id(condition.id()), attrs_bits(attrs.bits()) {}

  bool operator==(const SubQueryKey& other) const {
    return condition_id == other.condition_id &&
           attrs_bits == other.attrs_bits;
  }
};

struct SubQueryKeyHash {
  size_t operator()(const SubQueryKey& key) const {
    // splitmix64 finalizer over the xor-folded fields; ids are sequential,
    // so full avalanche keeps the hash table balanced.
    uint64_t x = key.condition_id * 0x9e3779b97f4a7c15ull ^ key.attrs_bits;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return static_cast<size_t>(x ^ (x >> 31));
  }
};

/// Fingerprint carried into keyed fault schedules and backoff jitter streams
/// (PageRequest::fingerprint): built from the condition's STRUCTURAL
/// fingerprint plus the projection bits, not the intern id. Intern ids are
/// monotonic and never reused, so they depend on the process's allocation
/// history — a sub-query re-interned after its last reference died gets a
/// fresh id. Keying fault schedules on structure instead makes (seed,
/// fingerprint) replay the same schedule for the same logical sub-query in
/// any process, which is what the deterministic-interleaving harness and the
/// executor oracle's seeded replays rely on.
inline uint64_t FaultFingerprint(const ConditionNode& condition,
                                 const AttributeSet& attrs) {
  uint64_t x = condition.fingerprint() * 0x9e3779b97f4a7c15ull ^ attrs.bits();
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// A set of sub-query identities the planner must route around — e.g. the
/// SP(C, A, R) fetches that just failed with kUnavailable (see
/// PlannerStrategy::PlanAvoiding and Mediator re-planning).
using SubQueryAvoidSet = std::unordered_set<SubQueryKey, SubQueryKeyHash>;

}  // namespace gencompact

#endif  // GENCOMPACT_PLAN_SUB_QUERY_KEY_H_
