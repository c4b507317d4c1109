#include "expr/intern.h"

#include <atomic>
#include <functional>

namespace gencompact {

namespace {

std::atomic<bool> g_interning_enabled{true};
std::atomic<uint64_t> g_next_condition_id{1};

// splitmix64 finalizer: full-avalanche mixing of one 64-bit word.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Order-sensitive combine (child order matters: source grammars may be
// order sensitive, exactly as StructurallyEquals treats it).
uint64_t Combine(uint64_t h, uint64_t v) { return Mix(h * 0x100000001b3ull ^ v); }

// Shallow structural probe: children are interned (or at worst structurally
// comparable), so candidate equality never re-walks whole subtrees when the
// pool is in steady state.
bool SameStructure(const ConditionNode& node, ConditionNode::Kind kind,
                   const AtomicCondition& atom,
                   const std::vector<ConditionPtr>& children) {
  if (node.kind() != kind) return false;
  if (kind == ConditionNode::Kind::kAtom) return node.atom() == atom;
  if (node.children().size() != children.size()) return false;
  for (size_t i = 0; i < children.size(); ++i) {
    if (node.children()[i] != children[i] &&
        !node.children()[i]->StructurallyEquals(*children[i])) {
      return false;
    }
  }
  return true;
}

struct NodeHashes {
  uint64_t fingerprint = 0;
  uint64_t shape = 0;
};

// The structural fingerprint (consistent with StructurallyEquals, the same
// in both interning modes) and the shape hash a node of this structure
// carries. They differ only in what an atom's constant contributes: its
// value, or only its ValueType.
NodeHashes HashNode(ConditionNode::Kind kind, const AtomicCondition& atom,
                    const std::vector<ConditionPtr>& children) {
  switch (kind) {
    case ConditionNode::Kind::kTrue: {
      const uint64_t h = Mix(0x7472756521ull);  // any fixed tag
      return {h, h};
    }
    case ConditionNode::Kind::kAtom: {
      uint64_t h = Mix(0x61746f6d21ull);
      h = Combine(h, std::hash<std::string>{}(atom.attribute));
      h = Combine(h, static_cast<uint64_t>(atom.op));
      // Value::Hash is consistent with Value::operator== (numerically equal
      // kInt/kDouble hash alike), matching StructurallyEquals' atom equality.
      return {Combine(h, atom.constant.Hash()),
              Combine(h, static_cast<uint64_t>(atom.constant.type()))};
    }
    case ConditionNode::Kind::kAnd:
    case ConditionNode::Kind::kOr: {
      NodeHashes h;
      h.fingerprint = h.shape =
          Mix(kind == ConditionNode::Kind::kAnd ? 0x616e6421ull : 0x6f7221ull);
      for (const ConditionPtr& child : children) {
        h.fingerprint = Combine(h.fingerprint, child->fingerprint());
        h.shape = Combine(h.shape, child->shape_hash());
      }
      return h;
    }
  }
  return {};
}

}  // namespace

ConditionInterner& ConditionInterner::Global() {
  static ConditionInterner* const pool = new ConditionInterner();
  return *pool;
}

bool ConditionInterner::enabled() {
  return g_interning_enabled.load(std::memory_order_relaxed);
}

void ConditionInterner::set_enabled(bool on) {
  g_interning_enabled.store(on, std::memory_order_relaxed);
}

ConditionPtr ConditionInterner::Intern(ConditionNode::Kind kind,
                                       AtomicCondition atom,
                                       std::vector<ConditionPtr> children) {
  const NodeHashes hashes = HashNode(kind, atom, children);
  const uint64_t fingerprint = hashes.fingerprint;
  if (!enabled()) {
    // Ablation mode: fresh node, fresh id, not pooled (plain deleter).
    return ConditionPtr(new ConditionNode(
        kind, std::move(atom), std::move(children), fingerprint, hashes.shape,
        g_next_condition_id.fetch_add(1, std::memory_order_relaxed)));
  }
  Shard& shard = ShardFor(fingerprint);
  std::lock_guard<std::mutex> lock(shard.mu);
  std::vector<Entry>& bucket = shard.buckets[fingerprint];
  for (const Entry& entry : bucket) {
    // lock() fails for a node whose last reference is mid-destruction; its
    // deleter will unlink the entry once it acquires this shard's lock.
    ConditionPtr existing = entry.weak.lock();
    if (existing != nullptr && SameStructure(*existing, kind, atom, children)) {
      ++shard.hits;
      return existing;
    }
  }
  ++shard.misses;
  const ConditionNode* node = new ConditionNode(
      kind, std::move(atom), std::move(children), fingerprint, hashes.shape,
      g_next_condition_id.fetch_add(1, std::memory_order_relaxed));
  ConditionPtr interned(node, Unlink{});
  bucket.push_back(Entry{node, interned});
  return interned;
}

void ConditionInterner::Unlink::operator()(const ConditionNode* node) const {
  Global().Remove(node);
  // Deleting outside the shard lock: the children's deleters re-enter the
  // pool (possibly the same shard).
  delete node;
}

void ConditionInterner::Remove(const ConditionNode* node) {
  Shard& shard = ShardFor(node->fingerprint());
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.buckets.find(node->fingerprint());
  if (it == shard.buckets.end()) return;
  std::vector<Entry>& bucket = it->second;
  for (size_t i = 0; i < bucket.size(); ++i) {
    // Match on the raw pointer: a structurally equal replacement node may
    // already sit in this bucket if it was interned while this node's
    // destruction was in flight.
    if (bucket[i].node == node) {
      bucket[i] = std::move(bucket.back());
      bucket.pop_back();
      break;
    }
  }
  if (bucket.empty()) shard.buckets.erase(it);
}

ConditionInterner::Stats ConditionInterner::stats() const {
  Stats stats;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [fp, bucket] : shard.buckets) {
      stats.live_nodes += bucket.size();
    }
    stats.hits += shard.hits;
    stats.misses += shard.misses;
  }
  return stats;
}

}  // namespace gencompact
