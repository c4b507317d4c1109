#ifndef GENCOMPACT_EXPR_CONDITION_H_
#define GENCOMPACT_EXPR_CONDITION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/value.h"
#include "expr/compare_op.h"
#include "schema/schema.h"

namespace gencompact {

/// A leaf Boolean condition: `attribute op constant`.
struct AtomicCondition {
  std::string attribute;
  CompareOp op = CompareOp::kEq;
  Value constant;

  std::string ToString() const;
  bool operator==(const AtomicCondition& other) const;
};

class ConditionNode;

/// Conditions are immutable and shared; rewritten trees share unchanged
/// subtrees with their originals.
using ConditionPtr = std::shared_ptr<const ConditionNode>;

/// Compact process-unique identity of an interned condition tree. Ids are
/// monotonically increasing and never reused, so caches keyed by
/// ConditionId (Check memo, plan cache, planner memos) can never confuse a
/// destroyed condition with a newly built one.
using ConditionId = uint64_t;

/// A node of a condition tree (CT, Section 3 of the paper). Leaves are
/// atomic conditions (or the trivially-true condition used for source
/// downloads); interior nodes are n-ary ∧ / ∨ connectors.
///
/// Nodes are hash-consed: the factories below return pointer-identical
/// ConditionPtrs for structurally equal trees (see ConditionInterner), each
/// carrying a precomputed 64-bit structural fingerprint, a type-erased shape
/// hash, and a compact ConditionId. Equality is therefore a pointer
/// comparison and hashing a field load — no rendered-string keys anywhere on
/// the planning or execution hot paths. Every node is owned by a
/// ConditionPtr, so shared_from_this() is always valid.
class ConditionNode : public std::enable_shared_from_this<ConditionNode> {
 public:
  enum class Kind { kTrue, kAtom, kAnd, kOr };

  /// The trivially true condition (the `SP(true, A, R)` download query).
  static ConditionPtr True();

  static ConditionPtr Atom(std::string attribute, CompareOp op, Value constant);
  static ConditionPtr Atom(AtomicCondition atom);

  /// n-ary conjunction. Requires at least one child; a single child is
  /// returned unchanged (no degenerate connector nodes are created).
  static ConditionPtr And(std::vector<ConditionPtr> children);

  /// n-ary disjunction, same conventions as And().
  static ConditionPtr Or(std::vector<ConditionPtr> children);

  /// Connector of the given kind (kAnd/kOr); convenience for generic code.
  static ConditionPtr Connector(Kind kind, std::vector<ConditionPtr> children);

  Kind kind() const { return kind_; }
  bool is_true() const { return kind_ == Kind::kTrue; }
  bool is_atom() const { return kind_ == Kind::kAtom; }
  bool is_connector() const {
    return kind_ == Kind::kAnd || kind_ == Kind::kOr;
  }

  /// Valid only for kAtom nodes.
  const AtomicCondition& atom() const { return atom_; }

  /// Children of a connector node (empty for leaves).
  const std::vector<ConditionPtr>& children() const { return children_; }

  /// 64-bit structural fingerprint: equal for structurally equal trees,
  /// precomputed at construction. Hash seed for every identity-keyed
  /// container downstream.
  uint64_t fingerprint() const { return fingerprint_; }

  /// 64-bit hash of the tree with every constant erased to its ValueType:
  /// equal for trees that differ only in their constants' values. The
  /// Checker's memo buckets on it.
  uint64_t shape_hash() const { return shape_hash_; }

  /// Process-unique interned identity; pointer-equal nodes share it.
  ConditionId id() const { return id_; }

  /// Attr(C): positions of all attributes mentioned in this subtree.
  /// NotFound if an attribute is not in `schema`.
  Result<AttributeSet> Attributes(const Schema& schema) const;

  /// Number of atomic conditions in the subtree.
  size_t CountAtoms() const;

  /// Maximum node depth (a leaf has depth 1).
  size_t Depth() const;

  /// Infix rendering; compound children are parenthesized, e.g.
  /// `make = "BMW" and (color = "red" or color = "black")`. Built on demand
  /// — only EXPLAIN, the plan printer, and error messages pay for it.
  std::string ToString() const;

  /// Exact ordered structural equality (child order matters — source
  /// grammars may be order sensitive). With interning on this is a pointer
  /// comparison; the deep walk only runs for nodes built while the
  /// interning ablation had hash-consing disabled.
  bool StructurallyEquals(const ConditionNode& other) const;

 private:
  friend class ConditionInterner;

  ConditionNode(Kind kind, AtomicCondition atom,
                std::vector<ConditionPtr> children, uint64_t fingerprint,
                uint64_t shape_hash, ConditionId id)
      : kind_(kind),
        atom_(std::move(atom)),
        children_(std::move(children)),
        fingerprint_(fingerprint),
        shape_hash_(shape_hash),
        id_(id) {}

  void AppendTo(std::string* out) const;

  Kind kind_;
  AtomicCondition atom_;
  std::vector<ConditionPtr> children_;
  uint64_t fingerprint_;
  uint64_t shape_hash_;
  ConditionId id_;
};

}  // namespace gencompact

#endif  // GENCOMPACT_EXPR_CONDITION_H_
