#include "storage/table.h"

#include "storage/column_batch.h"

namespace gencompact {

const ColumnStore& Table::columns(const AttributeSet& attrs) const {
  const uint64_t want = attrs.bits();
  if ((built_.load(std::memory_order_acquire) & want) == want &&
      mirrored_rows_.load(std::memory_order_acquire) == rows_.size()) {
    return mirror_;
  }
  std::lock_guard<std::mutex> lock(mirror_mu_);
  const uint64_t built = built_.load(std::memory_order_relaxed);
  if (mirrored_rows_.load(std::memory_order_relaxed) != rows_.size()) {
    // Rows appended since the last build: catch every built column up.
    mirror_.Mirror(rows_, AttributeSet::FromBits(built));
    mirrored_rows_.store(rows_.size(), std::memory_order_release);
  }
  if ((built & want) != want) {
    mirror_.Mirror(rows_, AttributeSet::FromBits(want & ~built));
    built_.store(built | want, std::memory_order_release);
  }
  return mirror_;
}

Status Table::Append(Row row) {
  if (row.size() != schema_.num_attributes()) {
    return Status::InvalidArgument(
        "row width " + std::to_string(row.size()) + " != schema width " +
        std::to_string(schema_.num_attributes()) + " for table " + name_);
  }
  for (size_t i = 0; i < row.size(); ++i) {
    const Value& v = row.value(i);
    if (v.is_null()) continue;
    const ValueType declared = schema_.attribute(static_cast<int>(i)).type;
    const ValueType actual = v.type();
    const bool numeric_ok =
        (declared == ValueType::kInt || declared == ValueType::kDouble) &&
        v.is_numeric();
    if (actual != declared && !numeric_ok) {
      return Status::InvalidArgument(
          "value " + v.ToString() + " has type " + ValueTypeName(actual) +
          ", expected " + ValueTypeName(declared) + " for attribute " +
          schema_.attribute(static_cast<int>(i)).name);
    }
  }
  rows_.push_back(std::move(row));
  return Status::OK();
}

}  // namespace gencompact
