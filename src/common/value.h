#ifndef GENCOMPACT_COMMON_VALUE_H_
#define GENCOMPACT_COMMON_VALUE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace gencompact {

/// Runtime type of a Value / declared type of a schema attribute.
enum class ValueType {
  kNull = 0,
  kBool,
  kInt,     ///< 64-bit signed integer
  kDouble,  ///< IEEE double
  kString,  ///< UTF-8 byte string
};

const char* ValueTypeName(ValueType type);

/// A dynamically typed scalar, the unit of data flowing through the system.
///
/// Values are ordered within numeric types (kInt and kDouble compare
/// numerically against each other) and within kString / kBool. Comparing
/// incomparable types (e.g. string vs int) is defined but arbitrary
/// (type-tag order) so Values can live in ordered containers.
class Value {
 public:
  /// Constructs a NULL value.
  Value() : data_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Bool(bool v) { return Value(std::in_place_type<bool>, v); }
  static Value Int(int64_t v) { return Value(std::in_place_type<int64_t>, v); }
  static Value Double(double v) {
    return Value(std::in_place_type<double>, v);
  }
  static Value String(std::string v) {
    return Value(std::in_place_type<std::string>, std::move(v));
  }

  /// Constructs the payload of type T (bool, int64_t, double or
  /// std::string) in place from `args`: what emplace_back forwards to, so
  /// a Value built inside a row's vector is never moved.
  template <typename T, typename... Args>
  explicit Value(std::in_place_type_t<T> type, Args&&... args)
      : data_(type, std::forward<Args>(args)...) {}

  ValueType type() const;

  bool is_null() const { return type() == ValueType::kNull; }
  bool is_numeric() const {
    return type() == ValueType::kInt || type() == ValueType::kDouble;
  }

  bool bool_value() const { return std::get<bool>(data_); }
  int64_t int_value() const { return std::get<int64_t>(data_); }
  double double_value() const { return std::get<double>(data_); }
  const std::string& string_value() const { return std::get<std::string>(data_); }

  /// Numeric view: kInt/kDouble as double. Requires is_numeric().
  double AsDouble() const;

  /// Three-way comparison: negative, zero, positive. Numeric types compare
  /// numerically across kInt/kDouble; otherwise types compare by tag first.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// Stable hash consistent with operator== (numerically equal kInt/kDouble
  /// hash alike).
  size_t Hash() const;

  /// Hash() of a Value of each type, from the bare payload — what the
  /// column mirror folds without building a Value.
  static constexpr size_t kNullHash = 0x9e3779b97f4a7c15ull;
  static size_t HashBool(bool v) { return v ? 0x1234567u : 0x89abcdefu; }
  /// Ints hash through their double image, so that Int(2) and Double(2.0)
  /// (which compare equal) hash alike.
  static size_t HashInt(int64_t v) {
    return HashDouble(static_cast<double>(v));
  }
  static size_t HashDouble(double v) { return std::hash<double>()(v); }
  /// Equal to std::hash<std::string> of the same bytes.
  static size_t HashString(std::string_view v) {
    return std::hash<std::string_view>()(v);
  }

  /// Renders the value for display / serialization. Strings are quoted.
  std::string ToString() const;

 private:
  using Data = std::variant<std::monostate, bool, int64_t, double, std::string>;

  Data data_;
};

struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace gencompact

#endif  // GENCOMPACT_COMMON_VALUE_H_
