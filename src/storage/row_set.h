#ifndef GENCOMPACT_STORAGE_ROW_SET_H_
#define GENCOMPACT_STORAGE_ROW_SET_H_

#include <unordered_set>
#include <vector>

#include "storage/row.h"

namespace gencompact {

/// A duplicate-free bag of rows sharing one layout. The mediator operates
/// under set semantics (Section 3, footnote 2: the mediator performs
/// duplicate elimination), so query results are RowSets.
class RowSet {
 public:
  RowSet() : layout_(AttributeSet(), 0) {}
  explicit RowSet(RowLayout layout) : layout_(std::move(layout)) {}

  const RowLayout& layout() const { return layout_; }
  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  /// Inserts a row (deduplicating). Returns true if newly inserted.
  bool Insert(Row row);

  bool Contains(const Row& row) const { return rows_.count(row) > 0; }

  const std::unordered_set<Row, RowHash>& rows() const { return rows_; }

  /// Rows in a deterministic order — Value-wise lexicographic comparison
  /// slot by slot (Value::Compare), shorter rows first on a tie — for
  /// tests/printing.
  std::vector<Row> SortedRows() const;

  /// Moves every row of `other` into this set (in-place set union — rows
  /// are moved, not copied, and cached hashes are reused); attribute sets
  /// must agree. `other` is left valid but unspecified.
  void MergeFrom(RowSet&& other);

  /// Drops every row not present in `other` (in-place set intersection);
  /// attribute sets must agree.
  void IntersectWith(const RowSet& other);

  /// Projects all rows to `attrs` (subset of layout attrs), deduplicating.
  RowSet ProjectTo(const AttributeSet& attrs, size_t schema_width) const;

 private:
  RowLayout layout_;
  std::unordered_set<Row, RowHash> rows_;
};

}  // namespace gencompact

#endif  // GENCOMPACT_STORAGE_ROW_SET_H_
