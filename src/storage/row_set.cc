#include "storage/row_set.h"

#include <algorithm>
#include <cassert>
#include <iterator>

namespace gencompact {

bool RowSet::Insert(Row row) {
  assert(row.size() == layout_.width());
  return rows_.insert(std::move(row)).second;
}

std::vector<Row> RowSet::SortedRows() const {
  std::vector<Row> out(rows_.begin(), rows_.end());
  std::sort(out.begin(), out.end(), [](const Row& a, const Row& b) {
    const size_t n = std::min(a.size(), b.size());
    for (size_t i = 0; i < n; ++i) {
      const int c = a.value(i).Compare(b.value(i));
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  });
  return out;
}

void RowSet::MergeFrom(RowSet&& other) {
  assert(layout_.attrs() == other.layout_.attrs());
  if (rows_.empty()) {
    rows_ = std::move(other.rows_);
    return;
  }
  rows_.merge(other.rows_);  // duplicates stay behind in `other`
}

void RowSet::IntersectWith(const RowSet& other) {
  assert(layout_.attrs() == other.layout_.attrs());
  for (auto it = rows_.begin(); it != rows_.end();) {
    it = other.Contains(*it) ? std::next(it) : rows_.erase(it);
  }
}

RowSet RowSet::ProjectTo(const AttributeSet& attrs, size_t schema_width) const {
  RowLayout narrower(attrs, schema_width);
  RowSet out(narrower);
  for (const Row& row : rows_) {
    out.Insert(layout_.Project(row, narrower));
  }
  return out;
}

}  // namespace gencompact
