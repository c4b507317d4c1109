#include "storage/column_batch.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace gencompact {

namespace {

// Mirrors Row::ExtendHash's fold exactly (seeded with Row::kEmptyHash), so
// column-computed hashes interoperate with Row's cached hashes.
inline size_t CombineHash(size_t h, size_t value_hash) {
  return h ^ (value_hash + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
}

}  // namespace

void Column::AppendValueTo(size_t row, std::vector<Value>* out) const {
  switch (TagAt(row)) {
    case ValueType::kNull:
      out->emplace_back();
      return;
    case ValueType::kBool:
      out->emplace_back(std::in_place_type<bool>, bools[row] != 0);
      return;
    case ValueType::kInt:
      out->emplace_back(std::in_place_type<int64_t>, nums[row]);
      return;
    case ValueType::kDouble:
      out->emplace_back(std::in_place_type<double>,
                        std::bit_cast<double>(nums[row]));
      return;
    case ValueType::kString:
      out->emplace_back(std::in_place_type<std::string>, StringAt(row));
      return;
  }
}

size_t Column::HashAt(size_t row) const {
  switch (TagAt(row)) {
    case ValueType::kNull:
      return Value::kNullHash;
    case ValueType::kBool:
      return Value::HashBool(bools[row] != 0);
    case ValueType::kInt:
      return Value::HashInt(nums[row]);
    case ValueType::kDouble:
      return Value::HashDouble(std::bit_cast<double>(nums[row]));
    case ValueType::kString:
      return dict_hash[codes[row]];
  }
  return 0;
}

double Column::NumericAt(size_t row) const {
  return TagAt(row) == ValueType::kInt
             ? static_cast<double>(nums[row])
             : std::bit_cast<double>(nums[row]);
}

void Column::Append(const Value& value) {
  if (is_string()) {
    if (value.is_null()) {
      codes.push_back(kNullCode);
    } else {
      const std::string& s = value.string_value();
      codes.push_back(Intern(s, Value::HashString(s)));
    }
    return;
  }
  tag.push_back(static_cast<uint8_t>(value.type()));
  if (declared == ValueType::kBool) {
    bools.push_back(value.is_null() ? 0 : (value.bool_value() ? 1 : 0));
    return;
  }
  nums.push_back(value.is_null() ? 0
                 : value.type() == ValueType::kInt
                     ? value.int_value()
                     : std::bit_cast<int64_t>(value.double_value()));
}

void Column::Reserve(size_t cells) {
  if (is_string()) {
    codes.reserve(cells);
    return;
  }
  tag.reserve(cells);
  if (declared == ValueType::kBool) {
    bools.reserve(cells);
  } else {
    nums.reserve(cells);
  }
}

uint32_t Column::Find(std::string_view value, size_t hash) const {
  if (slots_.empty()) return kNullCode;
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const uint32_t code = slots_[i];
    if (code == kNullCode) return kNullCode;
    if (dict_hash[code] == hash && dict[code] == value) return code;
  }
}

uint32_t Column::Intern(std::string_view value, size_t hash) {
  const uint32_t found = Find(value, hash);
  if (found != kNullCode) return found;
  const uint32_t code = static_cast<uint32_t>(dict.size());
  dict.emplace_back(value);
  dict_hash.push_back(hash);
  if (2 * dict.size() > slots_.size()) {
    // Double to keep the table at most half full, re-placing every code.
    slots_.assign(std::max<size_t>(16, 2 * slots_.size()), kNullCode);
    const size_t mask = slots_.size() - 1;
    for (uint32_t c = 0; c < dict.size(); ++c) {
      size_t i = dict_hash[c] & mask;
      while (slots_[i] != kNullCode) i = (i + 1) & mask;
      slots_[i] = c;
    }
    return code;
  }
  const size_t mask = slots_.size() - 1;
  size_t i = hash & mask;
  while (slots_[i] != kNullCode) i = (i + 1) & mask;
  slots_[i] = code;
  return code;
}

ColumnStore::ColumnStore(const Schema& schema) {
  columns_.resize(schema.num_attributes());
  for (size_t i = 0; i < columns_.size(); ++i) {
    columns_[i].declared = schema.attribute(static_cast<int>(i)).type;
  }
}

void ColumnStore::Mirror(const std::vector<Row>& rows,
                         const AttributeSet& cols) {
  for (const int i : cols.Indices()) {
    Column& col = columns_[static_cast<size_t>(i)];
    if (col.size() == 0) col.Reserve(rows.size());  // exact first build
    for (size_t r = col.size(); r < rows.size(); ++r) {
      col.Append(rows[r].value(static_cast<size_t>(i)));
    }
  }
  // Written only on change: concurrent scans of already-built columns read
  // num_rows_ while another scan's first use builds a new column.
  if (num_rows_ != rows.size()) num_rows_ = rows.size();
}

Row ColumnStore::MaterializeRow(uint32_t row, const std::vector<int>& cols,
                                size_t hash) const {
  std::vector<Value> values;
  values.reserve(cols.size());
  for (int col : cols) {
    columns_[static_cast<size_t>(col)].AppendValueTo(row, &values);
  }
  // HashRow folds the cell hashes (a string's comes from its dictionary
  // entry) to exactly Row::ComputeHash(values).
  return Row(std::move(values), hash);
}

size_t ColumnStore::HashRow(uint32_t row, const std::vector<int>& cols) const {
  size_t h = Row::kEmptyHash;
  for (int col : cols) {
    h = CombineHash(h, columns_[static_cast<size_t>(col)].HashAt(row));
  }
  return h;
}

void ColumnStore::HashRows(const std::vector<uint32_t>& rows,
                           const std::vector<int>& cols,
                           std::vector<size_t>* hashes) const {
  hashes->assign(rows.size(), Row::kEmptyHash);
  size_t* h = hashes->data();
  for (int ci : cols) {
    const Column& col = columns_[static_cast<size_t>(ci)];
    if (col.is_string()) {
      // One dictionary lookup per cell: the hash was computed once per
      // distinct string, when the column was built.
      const uint32_t* codes = col.codes.data();
      const size_t* dict_hash = col.dict_hash.data();
      for (size_t i = 0; i < rows.size(); ++i) {
        const uint32_t code = codes[rows[i]];
        h[i] = CombineHash(h[i], code == Column::kNullCode ? Value::kNullHash
                                                           : dict_hash[code]);
      }
      continue;
    }
    for (size_t i = 0; i < rows.size(); ++i) {
      h[i] = CombineHash(h[i], col.HashAt(rows[i]));
    }
  }
}

bool ColumnStore::RowsEqual(uint32_t a, uint32_t b,
                            const std::vector<int>& cols) const {
  for (int ci : cols) {
    const Column& c = columns_[static_cast<size_t>(ci)];
    if (c.is_string()) {
      // One dictionary per column: equal strings share a code, and NULL
      // has its own.
      if (c.codes[a] != c.codes[b]) return false;
      continue;
    }
    const ValueType ta = c.TagAt(a);
    const ValueType tb = c.TagAt(b);
    if (ta == ValueType::kNull || tb == ValueType::kNull) {
      if (ta != tb) return false;  // null vs non-null: unequal ranks
      continue;                    // null == null under Value::Compare
    }
    if (c.declared == ValueType::kBool) {
      if (c.bools[a] != c.bools[b]) return false;
      continue;
    }
    // Value::Compare semantics: exact when both int, else via double.
    if (ta == ValueType::kInt && tb == ValueType::kInt) {
      if (c.nums[a] != c.nums[b]) return false;
    } else if (c.NumericAt(a) != c.NumericAt(b)) {
      return false;
    }
  }
  return true;
}

BatchDeduper::BatchDeduper(const ColumnStore* store, std::vector<int> cols,
                           size_t expected_rows)
    : store_(store),
      cols_(std::move(cols)),
      slots_(std::bit_ceil(std::max<size_t>(16, 2 * expected_rows)), 0),
      mask_(slots_.size() - 1) {}

bool BatchDeduper::AddIfNew(size_t hash, uint32_t row) {
  const uint64_t tag = static_cast<uint64_t>(hash) & 0xffffffff00000000ull;
  for (size_t i = hash & mask_;; i = (i + 1) & mask_) {
    const uint64_t slot = slots_[i];
    if (slot == 0) {
      assert(unique_ < slots_.size() / 2);  // sized by expected_rows
      slots_[i] = tag | (static_cast<uint64_t>(row) + 1);
      ++unique_;
      return true;
    }
    // The upper hash bits screen out almost every unequal tuple; equal
    // bits are confirmed on the columns.
    if ((slot & 0xffffffff00000000ull) == tag &&
        store_->RowsEqual(static_cast<uint32_t>(slot) - 1, row, cols_)) {
      return false;
    }
  }
}

}  // namespace gencompact
