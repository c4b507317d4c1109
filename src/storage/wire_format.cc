#include "storage/wire_format.h"

#include <bit>
#include <cstring>

namespace gencompact {

namespace {

constexpr uint32_t kMagic = 0x46574347u;  // "GCWF"
constexpr uint8_t kVersion = 1;

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

template <typename T>
void PutFixed(std::string* out, T v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out->append(buf, sizeof(T));
}

void PutVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

void PutZigzag(std::string* out, int64_t v) {
  PutVarint(out, (static_cast<uint64_t>(v) << 1) ^
                     static_cast<uint64_t>(v >> 63));
}

class Reader {
 public:
  explicit Reader(std::string_view bytes) : data_(bytes) {}

  bool ReadU8(uint8_t* v) {
    if (pos_ + 1 > data_.size()) return false;
    *v = static_cast<uint8_t>(data_[pos_++]);
    return true;
  }

  template <typename T>
  bool ReadFixed(T* v) {
    if (pos_ + sizeof(T) > data_.size()) return false;
    std::memcpy(v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  bool ReadVarint(uint64_t* v) {
    uint64_t out = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (pos_ >= data_.size()) return false;
      const uint8_t byte = static_cast<uint8_t>(data_[pos_++]);
      out |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        *v = out;
        return true;
      }
    }
    return false;
  }

  bool ReadZigzag(int64_t* v) {
    uint64_t raw;
    if (!ReadVarint(&raw)) return false;
    *v = static_cast<int64_t>((raw >> 1) ^ (~(raw & 1) + 1));
    return true;
  }

  bool ReadBytes(size_t n, std::string* out) {
    if (pos_ + n > data_.size()) return false;
    out->assign(data_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace

std::string EncodeColumnar(const ColumnStore& store,
                           const std::vector<int>& cols,
                           const std::vector<uint32_t>& rows,
                           uint64_t attr_bits, uint32_t schema_width) {
  std::string out;
  PutFixed(&out, kMagic);
  PutU8(&out, kVersion);
  PutFixed(&out, attr_bits);
  PutFixed(&out, schema_width);
  PutFixed(&out, static_cast<uint32_t>(rows.size()));
  PutU8(&out, static_cast<uint8_t>(cols.size()));
  for (int ci : cols) {
    const Column& col = store.column(static_cast<size_t>(ci));
    PutU8(&out, static_cast<uint8_t>(col.declared));
    for (uint32_t row : rows) {
      PutU8(&out, static_cast<uint8_t>(col.TagAt(row)));
    }
    for (uint32_t row : rows) {
      switch (col.TagAt(row)) {
        case ValueType::kNull:
          break;
        case ValueType::kBool:
          PutU8(&out, col.bools[row]);
          break;
        case ValueType::kInt:
          PutZigzag(&out, col.nums[row]);
          break;
        case ValueType::kDouble:
          PutFixed(&out, col.nums[row]);  // already the IEEE bit pattern
          break;
        case ValueType::kString: {
          const std::string& value = col.StringAt(row);
          PutVarint(&out, value.size());
          out += value;
          break;
        }
      }
    }
  }
  return out;
}

std::string EncodeColumnar(const RowSet& rows, const Schema& schema) {
  const ColumnStore store = TransposeRowSet(rows, schema);
  std::vector<int> cols(store.num_columns());
  for (size_t i = 0; i < cols.size(); ++i) cols[i] = static_cast<int>(i);
  std::vector<uint32_t> ids(store.num_rows());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<uint32_t>(i);
  return EncodeColumnar(store, cols, ids, rows.layout().attrs().bits(),
                        static_cast<uint32_t>(schema.num_attributes()));
}

Result<RowSet> DecodeColumnar(std::string_view bytes) {
  Reader reader(bytes);
  uint32_t magic = 0;
  uint8_t version = 0;
  uint64_t attr_bits = 0;
  uint32_t schema_width = 0;
  uint32_t num_rows = 0;
  uint8_t num_cols = 0;
  if (!reader.ReadFixed(&magic) || magic != kMagic) {
    return Status::InvalidArgument("columnar wire buffer: bad magic");
  }
  if (!reader.ReadU8(&version) || version != kVersion) {
    return Status::InvalidArgument("columnar wire buffer: bad version");
  }
  if (!reader.ReadFixed(&attr_bits) || !reader.ReadFixed(&schema_width) ||
      !reader.ReadFixed(&num_rows) || !reader.ReadU8(&num_cols)) {
    return Status::InvalidArgument("columnar wire buffer: truncated header");
  }
  const AttributeSet attrs = AttributeSet::FromBits(attr_bits);
  if (attrs.size() != num_cols || schema_width > 64) {
    return Status::InvalidArgument("columnar wire buffer: header mismatch");
  }

  // Decode column-major into a row-major Value matrix, then insert rows.
  std::vector<std::vector<Value>> matrix(
      num_rows, std::vector<Value>(num_cols));
  for (size_t c = 0; c < num_cols; ++c) {
    uint8_t declared = 0;
    if (!reader.ReadU8(&declared)) {
      return Status::InvalidArgument("columnar wire buffer: truncated column");
    }
    std::vector<uint8_t> tags(num_rows);
    for (uint32_t r = 0; r < num_rows; ++r) {
      if (!reader.ReadU8(&tags[r])) {
        return Status::InvalidArgument("columnar wire buffer: truncated tags");
      }
    }
    for (uint32_t r = 0; r < num_rows; ++r) {
      switch (static_cast<ValueType>(tags[r])) {
        case ValueType::kNull:
          matrix[r][c] = Value::Null();
          break;
        case ValueType::kBool: {
          uint8_t v = 0;
          if (!reader.ReadU8(&v)) {
            return Status::InvalidArgument(
                "columnar wire buffer: truncated bool");
          }
          matrix[r][c] = Value::Bool(v != 0);
          break;
        }
        case ValueType::kInt: {
          int64_t v = 0;
          if (!reader.ReadZigzag(&v)) {
            return Status::InvalidArgument(
                "columnar wire buffer: truncated int");
          }
          matrix[r][c] = Value::Int(v);
          break;
        }
        case ValueType::kDouble: {
          int64_t bits = 0;
          if (!reader.ReadFixed(&bits)) {
            return Status::InvalidArgument(
                "columnar wire buffer: truncated double");
          }
          matrix[r][c] = Value::Double(std::bit_cast<double>(bits));
          break;
        }
        case ValueType::kString: {
          uint64_t len = 0;
          std::string s;
          if (!reader.ReadVarint(&len) || !reader.ReadBytes(len, &s)) {
            return Status::InvalidArgument(
                "columnar wire buffer: truncated string");
          }
          matrix[r][c] = Value::String(std::move(s));
          break;
        }
        default:
          return Status::InvalidArgument("columnar wire buffer: bad tag");
      }
    }
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("columnar wire buffer: trailing bytes");
  }

  RowSet out(RowLayout(attrs, schema_width));
  for (auto& values : matrix) out.Insert(Row(std::move(values)));
  return out;
}

}  // namespace gencompact
