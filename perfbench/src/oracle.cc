#include "oracle.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <unordered_set>

namespace perfbench {

using gencompact::Row;
using gencompact::Table;
using gencompact::Value;
using gencompact::ValueType;

namespace {

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench oracle: %s\n", message.c_str());
  std::abort();
}

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t HashValue(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return Mix(1);
    case ValueType::kBool:
      return Mix(2 + (v.bool_value() ? 16 : 0));
    case ValueType::kInt:
      return Mix(3 ^ Mix(static_cast<uint64_t>(v.int_value())));
    case ValueType::kDouble: {
      uint64_t bits = 0;
      const double d = v.double_value();
      std::memcpy(&bits, &d, sizeof(bits));
      return Mix(4 ^ Mix(bits));
    }
    case ValueType::kString: {
      uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a
      for (const char c : v.string_value()) {
        h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
      }
      return Mix(5 ^ h);
    }
  }
  return 0;
}

bool IsNumeric(const Value& v) {
  return v.type() == ValueType::kInt || v.type() == ValueType::kDouble;
}

double Numeric(const Value& v) {
  return v.type() == ValueType::kInt ? static_cast<double>(v.int_value())
                                     : v.double_value();
}

bool Equal(const Value& a, const Value& b) {
  if (a.type() == ValueType::kString && b.type() == ValueType::kString) {
    return a.string_value() == b.string_value();
  }
  if (a.type() == ValueType::kInt && b.type() == ValueType::kInt) {
    return a.int_value() == b.int_value();
  }
  if (IsNumeric(a) && IsNumeric(b)) return Numeric(a) == Numeric(b);
  return false;
}

/// A Pred with attribute names resolved to column positions.
struct Compiled {
  Pred::Kind kind = Pred::Kind::kAnd;
  size_t column = 0;
  Op op = Op::kEq;
  Value constant;
  std::vector<Compiled> children;
};

Compiled Compile(const Pred& pred, const gencompact::Schema& schema) {
  Compiled out;
  out.kind = pred.kind;
  if (pred.kind == Pred::Kind::kAtom) {
    const std::optional<int> index = schema.IndexOf(pred.attr);
    if (!index.has_value()) Die("unknown attribute '" + pred.attr + "'");
    out.column = static_cast<size_t>(*index);
    out.op = pred.op;
    out.constant = pred.constant;
    return out;
  }
  for (const Pred& child : pred.children) {
    out.children.push_back(Compile(child, schema));
  }
  return out;
}

bool Eval(const Compiled& pred, const Row& row) {
  switch (pred.kind) {
    case Pred::Kind::kAnd:
      for (const Compiled& child : pred.children) {
        if (!Eval(child, row)) return false;
      }
      return true;
    case Pred::Kind::kOr:
      for (const Compiled& child : pred.children) {
        if (Eval(child, row)) return true;
      }
      return false;
    case Pred::Kind::kAtom:
      break;
  }
  const Value& v = row.value(pred.column);
  switch (pred.op) {
    case Op::kEq:
      return Equal(v, pred.constant);
    case Op::kLe:
      return IsNumeric(v) && Numeric(v) <= Numeric(pred.constant);
    case Op::kLt:
      return IsNumeric(v) && Numeric(v) < Numeric(pred.constant);
    case Op::kContains:
      return v.type() == ValueType::kString &&
             v.string_value().find(pred.constant.string_value()) !=
                 std::string::npos;
  }
  return false;
}

std::string RenderConstant(const Value& v) {
  if (v.type() == ValueType::kString) return "\"" + v.string_value() + "\"";
  return v.ToString();
}

const char* OpText(Op op) {
  switch (op) {
    case Op::kEq:
      return "=";
    case Op::kLe:
      return "<=";
    case Op::kLt:
      return "<";
    case Op::kContains:
      return "contains";
  }
  return "?";
}

std::string RenderPred(const Pred& pred, const std::string& qualifier) {
  if (pred.kind == Pred::Kind::kAtom) {
    return qualifier + pred.attr + " " + OpText(pred.op) + " " +
           RenderConstant(pred.constant);
  }
  const char* joiner = pred.kind == Pred::Kind::kAnd ? " and " : " or ";
  std::string out;
  for (size_t i = 0; i < pred.children.size(); ++i) {
    if (i > 0) out += joiner;
    const Pred& child = pred.children[i];
    const bool nested = child.kind != Pred::Kind::kAtom;
    out += nested ? "(" + RenderPred(child, qualifier) + ")"
                  : RenderPred(child, qualifier);
  }
  return out;
}

}  // namespace

Pred Pred::Atom(std::string attr, Op op, Value constant) {
  Pred pred;
  pred.kind = Kind::kAtom;
  pred.attr = std::move(attr);
  pred.op = op;
  pred.constant = std::move(constant);
  return pred;
}

Pred Pred::And(std::vector<Pred> children) {
  Pred pred;
  pred.kind = Kind::kAnd;
  pred.children = std::move(children);
  return pred;
}

Pred Pred::Or(std::vector<Pred> children) {
  Pred pred;
  pred.kind = Kind::kOr;
  pred.children = std::move(children);
  return pred;
}

std::string RenderSql(const QuerySpec& spec) {
  const bool join = spec.relations.size() > 1;
  const auto qualifier = [&](size_t relation) {
    return join ? spec.relations[relation].source + "." : std::string();
  };
  std::string sql = "SELECT ";
  for (size_t i = 0; i < spec.select.size(); ++i) {
    if (i > 0) sql += ", ";
    sql += qualifier(spec.select[i].first) + spec.select[i].second;
  }
  sql += " FROM " + spec.relations[0].source;
  for (size_t r = 1; r < spec.relations.size(); ++r) {
    sql += " JOIN " + spec.relations[r].source + " ON " + qualifier(r - 1) +
           spec.links[r - 1].first + " = " + qualifier(r) +
           spec.links[r - 1].second;
  }
  std::string where;
  for (size_t r = 0; r < spec.relations.size(); ++r) {
    const Pred& local = spec.relations[r].local;
    if (local.is_true()) continue;
    if (!where.empty()) where += " and ";
    const bool nested = join && local.kind == Pred::Kind::kOr;
    const std::string text = RenderPred(local, qualifier(r));
    where += nested ? "(" + text + ")" : text;
  }
  if (!where.empty()) sql += " WHERE " + where;
  return sql;
}

uint64_t HashRowValues(const std::vector<Value>& values) {
  uint64_t h = 0x2545f4914f6cdd1dull;
  for (const Value& v : values) h = Mix(h ^ HashValue(v));
  return h;
}

AnswerDigest DigestRowSet(const gencompact::RowSet& rows) {
  AnswerDigest digest;
  for (const Row& row : rows.rows()) {
    digest.rows += 1;
    digest.sum += HashRowValues(row.values());
  }
  return digest;
}

const Table& Oracle::TableOf(const std::string& source) const {
  const auto it = tables_.find(source);
  if (it == tables_.end()) Die("unknown source '" + source + "'");
  return *it->second;
}

std::vector<const Row*> Oracle::Filter(const std::string& source,
                                       const Pred& local) const {
  const Table& table = TableOf(source);
  const Compiled compiled = Compile(local, table.schema());
  std::vector<const Row*> out;
  for (const Row& row : table.rows()) {
    if (Eval(compiled, row)) out.push_back(&row);
  }
  return out;
}

AnswerDigest Oracle::Answer(const QuerySpec& spec) const {
  const size_t n = spec.relations.size();
  std::vector<std::vector<const Row*>> filtered(n);
  for (size_t r = 0; r < n; ++r) {
    filtered[r] = Filter(spec.relations[r].source, spec.relations[r].local);
  }

  // Join columns of every link, resolved once.
  std::vector<std::pair<size_t, size_t>> link_columns;
  for (size_t r = 0; r + 1 < n; ++r) {
    const auto left = TableOf(spec.relations[r].source)
                          .schema()
                          .IndexOf(spec.links[r].first);
    const auto right = TableOf(spec.relations[r + 1].source)
                           .schema()
                           .IndexOf(spec.links[r].second);
    if (!left.has_value() || !right.has_value()) Die("unknown join attribute");
    link_columns.push_back({static_cast<size_t>(*left),
                            static_cast<size_t>(*right)});
  }

  // Output columns in the mediator's layout order: relation order, then
  // attribute position within the relation.
  std::vector<std::pair<size_t, size_t>> out_columns;
  for (const auto& [relation, attr] : spec.select) {
    const auto index =
        TableOf(spec.relations[relation].source).schema().IndexOf(attr);
    if (!index.has_value()) Die("unknown select attribute '" + attr + "'");
    out_columns.push_back({relation, static_cast<size_t>(*index)});
  }
  std::sort(out_columns.begin(), out_columns.end());
  out_columns.erase(std::unique(out_columns.begin(), out_columns.end()),
                    out_columns.end());

  // Nested-loop join along the chain.
  std::vector<std::vector<const Row*>> tuples;
  for (const Row* row : filtered[0]) tuples.push_back({row});
  for (size_t r = 1; r < n; ++r) {
    std::vector<std::vector<const Row*>> next;
    const auto [left_col, right_col] = link_columns[r - 1];
    for (const std::vector<const Row*>& tuple : tuples) {
      for (const Row* row : filtered[r]) {
        if (Equal(tuple.back()->value(left_col), row->value(right_col))) {
          std::vector<const Row*> extended = tuple;
          extended.push_back(row);
          next.push_back(std::move(extended));
        }
      }
    }
    tuples = std::move(next);
  }

  AnswerDigest digest;
  std::unordered_set<uint64_t> seen;
  std::vector<Value> values;
  for (const std::vector<const Row*>& tuple : tuples) {
    values.clear();
    for (const auto& [relation, column] : out_columns) {
      values.push_back(tuple[relation]->value(column));
    }
    const uint64_t h = HashRowValues(values);
    if (seen.insert(h).second) {
      digest.rows += 1;
      digest.sum += h;
    }
  }
  return digest;
}

}  // namespace perfbench
