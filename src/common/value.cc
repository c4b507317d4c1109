#include "common/value.h"

#include <cmath>
#include <sstream>

namespace gencompact {

const char* ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "null";
    case ValueType::kBool:
      return "bool";
    case ValueType::kInt:
      return "int";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
  }
  return "unknown";
}

ValueType Value::type() const {
  switch (data_.index()) {
    case 0:
      return ValueType::kNull;
    case 1:
      return ValueType::kBool;
    case 2:
      return ValueType::kInt;
    case 3:
      return ValueType::kDouble;
    case 4:
      return ValueType::kString;
  }
  return ValueType::kNull;
}

double Value::AsDouble() const {
  if (type() == ValueType::kInt) return static_cast<double>(int_value());
  return double_value();
}

namespace {

// Rank used to order values of incomparable types; numerics share a rank.
int TypeRank(ValueType t) {
  switch (t) {
    case ValueType::kNull:
      return 0;
    case ValueType::kBool:
      return 1;
    case ValueType::kInt:
    case ValueType::kDouble:
      return 2;
    case ValueType::kString:
      return 3;
  }
  return 4;
}

}  // namespace

int Value::Compare(const Value& other) const {
  const int lr = TypeRank(type());
  const int rr = TypeRank(other.type());
  if (lr != rr) return lr < rr ? -1 : 1;
  switch (type()) {
    case ValueType::kNull:
      return 0;
    case ValueType::kBool: {
      const bool a = bool_value();
      const bool b = other.bool_value();
      return a == b ? 0 : (a < b ? -1 : 1);
    }
    case ValueType::kInt:
    case ValueType::kDouble: {
      // Compare exactly when both are ints; otherwise via double.
      if (type() == ValueType::kInt && other.type() == ValueType::kInt) {
        const int64_t a = int_value();
        const int64_t b = other.int_value();
        return a == b ? 0 : (a < b ? -1 : 1);
      }
      const double a = AsDouble();
      const double b = other.AsDouble();
      return a == b ? 0 : (a < b ? -1 : 1);
    }
    case ValueType::kString: {
      const int c = string_value().compare(other.string_value());
      return c == 0 ? 0 : (c < 0 ? -1 : 1);
    }
  }
  return 0;
}

size_t Value::Hash() const {
  switch (type()) {
    case ValueType::kNull:
      return kNullHash;
    case ValueType::kBool:
      return HashBool(bool_value());
    case ValueType::kInt:
      return HashInt(int_value());
    case ValueType::kDouble:
      return HashDouble(double_value());
    case ValueType::kString:
      return HashString(string_value());
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "null";
    case ValueType::kBool:
      return bool_value() ? "true" : "false";
    case ValueType::kInt:
      return std::to_string(int_value());
    case ValueType::kDouble: {
      std::ostringstream os;
      os << double_value();
      return os.str();
    }
    case ValueType::kString: {
      // Escape so that ToString is injective on strings; condition
      // serializations double as structural keys.
      std::string out = "\"";
      for (char c : string_value()) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
      }
      out += '"';
      return out;
    }
  }
  return "?";
}

}  // namespace gencompact
