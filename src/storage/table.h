#ifndef GENCOMPACT_STORAGE_TABLE_H_
#define GENCOMPACT_STORAGE_TABLE_H_

#include <atomic>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "schema/schema.h"
#include "storage/column_batch.h"
#include "storage/row.h"

namespace gencompact {

/// An in-memory relation: the data behind one simulated Internet source.
/// Rows are stored in full schema layout; duplicate full rows are allowed in
/// storage but query results are deduplicated downstream (set semantics).
class Table {
 public:
  Table(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)), mirror_(schema_) {}

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return rows_.size(); }
  const std::vector<Row>& rows() const { return rows_; }

  /// Appends a row; InvalidArgument if the width or any value type mismatches
  /// the schema (nulls are accepted for any type).
  Status Append(Row row);

  /// Convenience: append from values.
  Status AppendValues(std::vector<Value> values) {
    return Append(Row(std::move(values)));
  }

  /// Full-schema row layout.
  RowLayout FullLayout() const {
    return RowLayout(schema_.AllAttributes(), schema_.num_attributes());
  }

  /// The column-major mirror of the rows (ColumnStore) — what every scan
  /// filters, deduplicates and builds its answer from. Columns are built on
  /// first use: the returned store has every column in `attrs` built and
  /// reflecting every appended row, while columns no scan has asked for
  /// stay empty (a table pays only for the attributes its queries read or
  /// ship). Thread-safe: concurrent scans
  /// share one build of each column. A row appended after a column was
  /// built is added to it by the next columns() call; like every Append,
  /// that must not run concurrently with scans of this table.
  const ColumnStore& columns(const AttributeSet& attrs) const;

  /// The columns built so far.
  AttributeSet built_columns() const {
    return AttributeSet::FromBits(built_.load(std::memory_order_acquire));
  }

 private:
  std::string name_;
  Schema schema_;
  std::vector<Row> rows_;

  /// Guards building and extending mirror_; scans of current columns skip
  /// it (the two atomics below say what is current).
  mutable std::mutex mirror_mu_;
  mutable ColumnStore mirror_;
  /// Bits of the built columns, published after each build.
  mutable std::atomic<uint64_t> built_{0};
  /// Rows every built column reflects, published after each extension.
  mutable std::atomic<size_t> mirrored_rows_{0};
};

}  // namespace gencompact

#endif  // GENCOMPACT_STORAGE_TABLE_H_
