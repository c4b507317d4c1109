#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

// Query specifications and the ground-truth answer oracle.
//
// Every benchmark query is generated as a structured QuerySpec. The mediator
// only ever sees the SQL rendering of it; the oracle evaluates the spec
// directly — a row-by-row pi_A sigma_C R over the source table, or a
// nested-loop join along a chain — with its own predicate evaluator and its
// own row hash, so no mediator code path (parser, simplifier, planner, scan
// kernels, join processors) takes part in producing the expected answer.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/value.h"
#include "storage/row_set.h"
#include "storage/table.h"

namespace perfbench {

enum class Op { kEq, kLe, kLt, kContains };

/// A condition tree: an atom `attr op constant`, or an and/or of children.
/// An `and` with no children is the always-true condition.
struct Pred {
  enum class Kind { kAnd, kOr, kAtom };
  Kind kind = Kind::kAnd;
  std::string attr;
  Op op = Op::kEq;
  gencompact::Value constant;
  std::vector<Pred> children;

  static Pred Atom(std::string attr, Op op, gencompact::Value constant);
  static Pred And(std::vector<Pred> children);
  static Pred Or(std::vector<Pred> children);
  bool is_true() const { return kind == Kind::kAnd && children.empty(); }
};

/// One relation of a query: its source and the predicate local to it
/// (over unqualified attribute names).
struct RelationSpec {
  std::string source;
  Pred local;
};

/// A target query: a single-source SP query (one relation) or a join chain
/// rel0 JOIN rel1 ON rel0.a = rel1.b JOIN rel2 ON rel1.c = rel2.d ...
struct QuerySpec {
  std::vector<RelationSpec> relations;
  /// links[i] joins relations[i].first-attr = relations[i + 1].second-attr.
  std::vector<std::pair<std::string, std::string>> links;
  /// Projection: (relation index, attribute name).
  std::vector<std::pair<size_t, std::string>> select;
};

/// The mini-SQL text the mediator receives.
std::string RenderSql(const QuerySpec& spec);

/// Order-insensitive fingerprint of a duplicate-free answer: the row count
/// and the wrapping sum of per-row hashes. Rows hash their values in the
/// order the mediator lays them out (ascending attribute position of the
/// output schema).
struct AnswerDigest {
  uint64_t rows = 0;
  uint64_t sum = 0;
  bool operator==(const AnswerDigest& other) const {
    return rows == other.rows && sum == other.sum;
  }
  bool operator!=(const AnswerDigest& other) const { return !(*this == other); }
};

uint64_t HashRowValues(const std::vector<gencompact::Value>& values);

/// Digest of an answer returned by the mediator.
AnswerDigest DigestRowSet(const gencompact::RowSet& rows);

/// Ground-truth evaluator over the registered tables (not owned).
class Oracle {
 public:
  void AddTable(const std::string& source, const gencompact::Table* table) {
    tables_[source] = table;
  }

  /// The expected answer of `spec`. Fails loudly (aborts) on a spec that
  /// names an unknown source or attribute: that is a benchmark bug.
  AnswerDigest Answer(const QuerySpec& spec) const;

 private:
  /// Rows of `source` satisfying `local`.
  std::vector<const gencompact::Row*> Filter(const std::string& source,
                                             const Pred& local) const;

  const gencompact::Table& TableOf(const std::string& source) const;
  std::map<std::string, const gencompact::Table*> tables_;
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
