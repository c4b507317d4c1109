#ifndef GENCOMPACT_STORAGE_ROW_H_
#define GENCOMPACT_STORAGE_ROW_H_

#include <cassert>
#include <string>
#include <vector>

#include "common/value.h"
#include "schema/attribute_set.h"

namespace gencompact {

/// One tuple. A Row is always interpreted relative to an attribute layout:
/// either a full relation schema (values in schema order) or a projected
/// layout (values in ascending order of the projected attribute positions —
/// see RowLayout).
class Row {
 public:
  Row() = default;
  explicit Row(std::vector<Value> values)
      : values_(std::move(values)), hash_(ComputeHash(values_)) {}

  /// Trusted fast path for the columnar data plane: `hash` MUST equal
  /// ComputeHash(values) — the caller folded it from the column mirror's
  /// cell hashes instead of re-hashing the payloads (asserted in debug
  /// builds).
  Row(std::vector<Value> values, size_t hash)
      : values_(std::move(values)), hash_(hash) {
    assert(hash_ == ComputeHash(values_));
  }

  size_t size() const { return values_.size(); }
  const Value& value(size_t i) const { return values_[i]; }
  const std::vector<Value>& values() const { return values_; }

  bool operator==(const Row& other) const { return values_ == other.values_; }

  /// Cached: computed once at construction (rows are immutable), so set
  /// insertion, dedup and rehashing never re-fold the values.
  size_t Hash() const { return hash_; }

  /// Continues the sequential value fold from `h`:
  /// ExtendHash(a.Hash(), b) == Row(a ++ b).Hash(). The join build/probe
  /// path composes a concatenated row's hash from the left row's cached
  /// hash plus the appended values, then hands it to the trusted-hash
  /// constructor without re-folding the left side.
  static size_t ExtendHash(size_t h, const Value* values, size_t count);
  static size_t ExtendHash(size_t h, const std::vector<Value>& values) {
    return ExtendHash(h, values.data(), values.size());
  }

  /// ComputeHash({}) — the fold seed ExtendHash starts from.
  static constexpr size_t kEmptyHash = 0x51ed270b7a2cf321ull;

  std::string ToString() const;

 private:
  static size_t ComputeHash(const std::vector<Value>& values) {
    return ExtendHash(kEmptyHash, values);
  }

  std::vector<Value> values_;
  size_t hash_ = kEmptyHash;
};

struct RowHash {
  size_t operator()(const Row& row) const { return row.Hash(); }
};

/// Maps schema attribute positions to slots of a projected Row. A projected
/// row produced for AttributeSet A stores values in ascending attribute-index
/// order; RowLayout answers "which slot holds attribute i".
class RowLayout {
 public:
  /// Layout of a projection to `attrs` of a relation with `schema_width`
  /// attributes.
  RowLayout(AttributeSet attrs, size_t schema_width);

  const AttributeSet& attrs() const { return attrs_; }

  /// Slot of schema attribute `index`, or -1 if not present.
  int SlotOf(int index) const {
    return index >= 0 && static_cast<size_t>(index) < slot_of_.size()
               ? slot_of_[index]
               : -1;
  }

  bool HasAttribute(int index) const { return SlotOf(index) >= 0; }

  size_t width() const { return attrs_.size(); }

  /// Projects `row` (laid out by `this`) down to `narrower` attributes,
  /// which must be a subset of attrs().
  Row Project(const Row& row, const RowLayout& narrower) const;

 private:
  AttributeSet attrs_;
  std::vector<int> slot_of_;  // schema index -> slot, -1 if absent
};

}  // namespace gencompact

#endif  // GENCOMPACT_STORAGE_ROW_H_
