#ifndef GENCOMPACT_STORAGE_COLUMN_BATCH_H_
#define GENCOMPACT_STORAGE_COLUMN_BATCH_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/value.h"
#include "schema/attribute_set.h"
#include "schema/schema.h"
#include "storage/row.h"

namespace gencompact {

/// One typed column of a ColumnStore. The declared type picks the layout.
///
/// String columns are dictionary-coded: one uint32_t code per cell
/// (kNullCode for NULL) indexing `dict`, the column's distinct values in
/// first-appearance order, each with its Value::Hash() in `dict_hash`.
/// Equal strings share one code, so string equality is code equality.
///
/// Numeric and bool columns keep the payload plus a per-cell tag with the
/// *actual* Value type, because storage is deliberately looser than the
/// declaration: nulls are allowed anywhere, and a declared-numeric column
/// may hold both kInt and kDouble cells (Table::Append accepts either for
/// numeric attributes). Keeping the exact per-cell type is what makes the
/// mirror round-trip bit-identically — an Int(2) must come back as Int(2),
/// never as Double(2.0), even though the two compare (and hash) equal.
struct Column {
  /// Code of a NULL cell in a string column.
  static constexpr uint32_t kNullCode = UINT32_MAX;

  ValueType declared = ValueType::kString;

  /// Numeric and bool columns: actual Value type per cell (kNull for NULL).
  std::vector<uint8_t> tag;
  /// Payload, indexed in lockstep with `tag` (placeholder entries for
  /// nulls keep the indices aligned):
  ///   numeric declared: int64 value, or the bit pattern of the double
  ///   (disambiguated by the tag);
  std::vector<int64_t> nums;
  ///   bool declared: 0/1.
  std::vector<uint8_t> bools;

  /// String columns: one dictionary code per cell.
  std::vector<uint32_t> codes;
  /// String columns: the distinct values and their Value::Hash().
  std::vector<std::string> dict;
  std::vector<size_t> dict_hash;

  bool is_string() const {
    return declared != ValueType::kInt && declared != ValueType::kDouble &&
           declared != ValueType::kBool;
  }

  /// Number of cells.
  size_t size() const { return is_string() ? codes.size() : tag.size(); }

  ValueType TagAt(size_t row) const {
    if (is_string()) {
      return codes[row] == kNullCode ? ValueType::kNull : ValueType::kString;
    }
    return static_cast<ValueType>(tag[row]);
  }
  bool IsNull(size_t row) const { return TagAt(row) == ValueType::kNull; }

  /// Appends the cell to `out` as a Value built in place (exact round trip
  /// of what was appended).
  void AppendValueTo(size_t row, std::vector<Value>* out) const;

  /// Value::Hash() of the cell, without building the Value.
  size_t HashAt(size_t row) const;

  /// Numeric view of a numeric cell (int widened, double reinterpreted).
  double NumericAt(size_t row) const;

  /// The string of a non-null cell of a string column.
  const std::string& StringAt(size_t row) const { return dict[codes[row]]; }

  /// Dictionary code of `value` in a string column, or kNullCode if no
  /// cell holds it.
  uint32_t CodeOf(std::string_view value) const {
    return Find(value, Value::HashString(value));
  }

  /// Appends one cell: null or type-compatible with the declared type
  /// (numeric columns accept both kInt and kDouble, like Table::Append).
  void Append(const Value& value);

  void Reserve(size_t cells);

 private:
  uint32_t Find(std::string_view value, size_t hash) const;
  uint32_t Intern(std::string_view value, size_t hash);

  /// Open-addressing index over `dict` (power-of-two size, at most half
  /// full, kNullCode marks an empty slot): value -> code without a second
  /// copy of the strings.
  std::vector<uint32_t> slots_;
};

/// Column-major mirror of a table's rows: the storage every source scan
/// filters, hashes and deduplicates on, and builds its answer rows from.
/// Append order is row order, so row ids are stable and shared with the
/// row-major original.
///
/// The store is filled column by column (Mirror — Table builds only the
/// columns its scans read). Accessors below read only built columns.
class ColumnStore {
 public:
  ColumnStore() = default;

  /// One empty column per schema attribute, with its declared type.
  explicit ColumnStore(const Schema& schema);

  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }
  const Column& column(size_t i) const { return columns_[i]; }

  /// Makes every column in `cols` mirror all of `rows` (slot i of each row
  /// goes to column i): an empty column is built from scratch, a built one
  /// gets the rows appended since. Columns outside `cols` stay as they are
  /// — the caller keeps them either empty or current.
  void Mirror(const std::vector<Row>& rows, const AttributeSet& cols);

  /// Materializes row `row` projected to `cols` (ascending slot ids is the
  /// caller's convention; any order is honored). `hash` must be
  /// HashRow(row, cols): the Row takes it instead of re-folding the copied
  /// payloads (a scan hashes every survivor before it deduplicates).
  Row MaterializeRow(uint32_t row, const std::vector<int>& cols,
                     size_t hash) const;

  /// Hash of row `row` projected to `cols` — exactly the Row::Hash() of a
  /// Row holding those cells' Values, computed straight from the columns
  /// without building the Row.
  size_t HashRow(uint32_t row, const std::vector<int>& cols) const;

  /// Column-wise batch hashing: hashes[i] = HashRow(rows[i], cols) for all
  /// i, walking each column once (cache-friendly) instead of each row once.
  void HashRows(const std::vector<uint32_t>& rows, const std::vector<int>& cols,
                std::vector<size_t>* hashes) const;

  /// Value-equality (Value::Compare == 0 per slot) of two stored rows over
  /// `cols` — the dedup verify behind hash matches.
  bool RowsEqual(uint32_t a, uint32_t b, const std::vector<int>& cols) const;

 private:
  std::vector<Column> columns_;
  size_t num_rows_ = 0;
};

/// A batch of rows of a ColumnStore: the dense row-id range [begin, end)
/// plus the selection vector of rows still alive after predicate
/// evaluation (ascending row ids). The batch never copies data — kernels
/// read the store's columns directly and only the selection shrinks.
struct ColumnBatch {
  const ColumnStore* store = nullptr;
  uint32_t begin = 0;
  uint32_t end = 0;
  std::vector<uint32_t> selection;

  size_t width() const { return end - begin; }
};

/// Duplicate eliminator over stored rows: the SP(C,A,R) duplicate
/// elimination of a source scan, run on (hash, row id) pairs before any
/// Row exists. Keeps the first row id of every distinct projected tuple.
///
/// One flat open-addressing table, sized once for the rows the caller will
/// offer (at most half full, so it never grows): each slot packs the upper
/// 32 bits of a kept row's hash with its row id + 1 (0 = empty). A slot
/// whose hash bits match is verified with ColumnStore::RowsEqual, so the
/// result is exact even when unequal tuples share a hash.
class BatchDeduper {
 public:
  /// `expected_rows` bounds the number of distinct rows the caller will
  /// add (a scan passes its survivor count).
  BatchDeduper(const ColumnStore* store, std::vector<int> cols,
               size_t expected_rows);

  /// True iff no previously added row equals `row` over the projection;
  /// records the row if so. Equal rows must come with equal hashes (a
  /// scan passes store->HashRow(row, cols)).
  bool AddIfNew(size_t hash, uint32_t row);

  size_t unique_count() const { return unique_; }

 private:
  const ColumnStore* store_;
  std::vector<int> cols_;
  std::vector<uint64_t> slots_;
  size_t mask_ = 0;
  size_t unique_ = 0;
};

}  // namespace gencompact

#endif  // GENCOMPACT_STORAGE_COLUMN_BATCH_H_
