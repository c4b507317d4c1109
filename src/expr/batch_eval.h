#ifndef GENCOMPACT_EXPR_BATCH_EVAL_H_
#define GENCOMPACT_EXPR_BATCH_EVAL_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "expr/condition.h"
#include "schema/schema.h"
#include "storage/column_batch.h"
#include "storage/row.h"

namespace gencompact {

/// A condition compiled once per scan: the type/name resolution that
/// EvalCondition re-derives per row (schema name lookup, layout slot,
/// kernel choice per atom) happens in Compile(), and evaluation afterwards
/// is infallible — both entry points below can no longer fail.
///
/// Two entry points share one compiled program:
///   - Matches(row): per-row evaluation (mediator SPs over intermediate
///     results, FilterRows). Slot loads + EvalCompare, no schema lookups,
///     no Result<bool> per row. Const and thread-safe.
///   - FilterBatch(batch): the vectorized path over a ColumnStore (every
///     source scan, ScanTable). Each
///     atom runs as a typed kernel over the batch's selection vector; ∧
///     composes by chaining selections (each child narrows the survivor
///     list). An ∨ whose children are all string `=` atoms on one column
///     (a form's list field, `size = Z1 ∨ size = Z2`) is one kernel: a
///     membership test of the cell's dictionary code against the listed
///     values' codes. Any other ∨ evaluates its children on the
///     not-yet-matched remainder and merges the disjoint match lists in row
///     order. The first pass reads the batch's dense row range directly
///     when the root is an atom (or a list), or an ∧ whose first child is:
///     no selection vector is built for it. String = and != compare
///     dictionary codes: constants are resolved to codes once per store
///     (on the first batch, and again only if the store has grown since);
///     the other string operators read the cell's dictionary entry. Uses
///     per-node scratch buffers, so ONE thread per evaluator (create one
///     per scan; they are cheap).
///
/// Semantics are exactly EvalCondition's: NULL cells fail every atom,
/// string predicates on non-strings are false, numeric cells compare
/// numerically across kInt/kDouble, and mismatched-type comparisons order
/// by type rank (Value::Compare).
class CompiledEvaluator {
 public:
  /// Resolves and type-checks `cond` against `layout`/`schema`. NotFound
  /// whenever any atom names an attribute outside the schema or the
  /// layout, whatever the data. (EvalCondition short-circuits ∧/∨, so row
  /// by row it reports a missing attribute only for a row that reaches the
  /// atom.)
  static Result<CompiledEvaluator> Compile(const ConditionNode& cond,
                                           const RowLayout& layout,
                                           const Schema& schema);

  /// Row path: true iff the row (laid out by the compiled layout) matches.
  bool Matches(const Row& row) const { return MatchNode(root_, row); }

  /// Batch path: fills batch->selection with the surviving row ids of
  /// [batch->begin, batch->end), ascending. Reads only the columns in
  /// slots(), which must be built. Not thread-safe (scratch).
  void FilterBatch(ColumnBatch* batch) const;

  /// The compiled-layout slots (= store columns) FilterBatch reads.
  AttributeSet slots() const { return slots_; }

 private:
  enum class Kernel : uint8_t {
    kTrue,           ///< the trivially true condition
    kAnd,            ///< intersect child selections (chained)
    kOr,             ///< merge child selections (disjoint remainders)
    kNumericCmp,     ///< numeric column vs numeric constant
    kStringCode,     ///< string column = / != string constant, on codes
    kStringIn,       ///< ∨ of string = atoms on one column, on codes
    kStringCmp,      ///< string column vs string constant (<, <=, >, >=)
    kContains,       ///< string column contains string constant
    kStartsWith,     ///< string column startswith string constant
    kBoolCmp,        ///< bool column vs bool constant
    kConstFalse,     ///< statically false for every row (e.g. NULL constant)
    kNonNullConst,   ///< fixed result for non-null cells (type-rank compare)
  };

  struct Node {
    Kernel kernel = Kernel::kTrue;
    // Atom state.
    int slot = -1;                ///< column index in the compiled layout
    CompareOp op = CompareOp::kEq;
    Value constant;
    bool const_is_int = false;    ///< numeric constant is kInt
    int64_t const_int = 0;
    double const_dbl = 0.0;
    bool lt = false, eq = false, gt = false;  ///< op as a three-way mask
    // Connector state.
    std::vector<size_t> children;
  };

  size_t root_ = 0;
  std::vector<Node> nodes_;
  AttributeSet slots_;

  // kStringCode constants resolved against `bound_` holding
  // `bound_rows_` rows (Column::kNullCode: absent from the dictionary),
  // and per kStringIn node a byte per code + 1, set for every listed value
  // (slot 0, where kNullCode wraps, stays clear; empty: no value listed is
  // in the dictionary).
  mutable const ColumnStore* bound_ = nullptr;
  mutable size_t bound_rows_ = 0;
  mutable std::vector<uint32_t> const_code_;
  mutable std::vector<std::vector<uint8_t>> member_;

  // Per-node scratch (selection buffers, ∨ mark bitmaps): sized to the
  // batch width on first use, reused across batches of one scan.
  mutable std::vector<std::vector<uint32_t>> sel_scratch_;
  mutable std::vector<std::vector<uint32_t>> rem_scratch_;  ///< ∨ remainders
  mutable std::vector<std::vector<uint8_t>> mark_scratch_;  ///< ∨ match marks
  mutable std::vector<uint32_t> iota_;  ///< root selection (no dense pass)

  Result<size_t> CompileNode(const ConditionNode& cond, const RowLayout& layout,
                             const Schema& schema);

  bool MatchNode(size_t id, const Row& row) const;

  /// Filters `in` (n ascending row ids) through node `id`; survivors land
  /// in sel_scratch_[id], count returned. `begin` is the batch's first row
  /// id (index base of the ∨ mark bitmaps).
  size_t FilterNode(size_t id, const uint32_t* in, size_t n,
                    uint32_t begin, const ColumnStore& store) const;

  /// The ∧ chain of node `id` from its child `first` on, over `in`;
  /// survivors land in sel_scratch_[id] (sized for n), count returned.
  size_t FilterAnd(size_t id, size_t first, const uint32_t* in, size_t n,
                   uint32_t begin, const ColumnStore& store) const;

  /// Leaf kernel of node `id` over the n row ids `in[0..n)` — a pointer
  /// to a selection, or a dense range — into `out`.
  template <typename Rows>
  size_t FilterAtom(size_t id, const Column& col, Rows in, size_t n,
                    uint32_t* out) const;
};

}  // namespace gencompact

#endif  // GENCOMPACT_EXPR_BATCH_EVAL_H_
