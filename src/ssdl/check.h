#ifndef GENCOMPACT_SSDL_CHECK_H_
#define GENCOMPACT_SSDL_CHECK_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "expr/condition.h"
#include "ssdl/description.h"
#include "ssdl/earley.h"

namespace gencompact {

struct CondToken;

/// The paper's Check function (Section 4): given a condition expression and
/// a source, reports the attributes the source exports when evaluating that
/// expression; the empty result means the condition is not supported.
///
/// Faithfulness note (see DESIGN.md): when a condition parses under several
/// condition nonterminals with different attribute associations, a single
/// attribute set is ambiguous, so Check returns the *family* of maximal
/// exported sets. `SP(C, A, R)` is supported iff A ⊆ F for some family
/// member F.
///
/// Results are memoized by condition *shape*: the tree with each constant
/// erased to its ValueType, except a constant equal (Value::operator==) to a
/// literal terminal of the grammar, which stays in the key as its value. A
/// grammar sees a constant only through `$type` placeholders, which match on
/// the type alone, and through literals, which match by operator==, so all
/// conditions of one shape get the same family: the key is exact, and a
/// query with fresh constants hits the memo. Entries are bucketed by the
/// node's precomputed shape hash and confirmed by an exact walk against the
/// entry's representative condition, which the entry keeps alive. The memo
/// grows with the number of distinct shapes and lives as long as the
/// Checker (a description reload builds new Checkers). Returned references
/// stay valid for the Checker's lifetime.
///
/// The Checker is thread-safe (shared-lock memo reads, exclusive-lock
/// inserts; the stateful Earley recognizer is serialized on misses only),
/// so concurrent clients plan against one source without an external
/// planning lock.
class Checker {
 public:
  /// `description` must outlive the Checker.
  explicit Checker(const SourceDescription* description);

  /// Family of maximal exported attribute sets for `cond`; empty iff the
  /// source cannot evaluate `cond`.
  const std::vector<AttributeSet>& Check(const ConditionNode& cond);

  /// True iff SP(cond, attrs, R) is supported: the source can evaluate
  /// `cond` and export (a superset of) `attrs`.
  bool Supports(const ConditionNode& cond, const AttributeSet& attrs);

  /// Exported family for the trivially-true condition (source download).
  const std::vector<AttributeSet>& CheckTrue();

  const SourceDescription& description() const { return *description_; }

  // Instrumentation (used by benchmarks and the mediator stats snapshot).
  size_t num_checks() const {
    return num_checks_.load(std::memory_order_relaxed);
  }
  size_t num_cache_hits() const {
    return num_cache_hits_.load(std::memory_order_relaxed);
  }
  size_t total_earley_items() const {
    return total_earley_items_.load(std::memory_order_relaxed);
  }
  /// Distinct condition shapes memoized so far.
  size_t memo_size() const {
    std::shared_lock<std::shared_mutex> lock(memo_mu_);
    return memo_.size();
  }

  /// True iff `a` and `b` have one shape in the memo's sense: the same tree
  /// up to constants of one type, where a constant equal to a grammar
  /// literal matches only an equal constant. Conditions of one shape get
  /// one Check family, and so do all their sub-conditions.
  bool SameShape(const ConditionNode& a, const ConditionNode& b) const;

 private:
  struct Entry {
    ConditionPtr shape;  ///< representative condition of this shape
    std::vector<AttributeSet> family;
  };

  /// The memoized family of `cond`'s shape, or null. Requires memo_mu_.
  const std::vector<AttributeSet>* Find(const ConditionNode& cond) const;
  /// True iff `constant` equals a literal of the grammar.
  bool Pinned(const Value& constant) const;
  /// Runs Earley and reduces to the maximal-set family. Requires earley_mu_.
  std::vector<AttributeSet> ComputeFamilyLocked(
      const std::vector<CondToken>& tokens);

  const SourceDescription* description_;
  std::vector<Value> literals_;  ///< the grammar's kConstLiteral values
  std::mutex earley_mu_;  ///< serializes the recognizer and memo inserts
  EarleyRecognizer recognizer_;
  mutable std::shared_mutex memo_mu_;
  /// shape hash → entries; node-based, so entries never move once inserted.
  std::unordered_multimap<uint64_t, Entry> memo_;
  std::atomic<size_t> num_checks_{0};
  std::atomic<size_t> num_cache_hits_{0};
  std::atomic<size_t> total_earley_items_{0};
};

}  // namespace gencompact

#endif  // GENCOMPACT_SSDL_CHECK_H_
