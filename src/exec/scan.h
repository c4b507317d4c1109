#ifndef GENCOMPACT_EXEC_SCAN_H_
#define GENCOMPACT_EXEC_SCAN_H_

#include <cstddef>

#include "common/result.h"
#include "expr/condition.h"
#include "storage/row_set.h"
#include "storage/table.h"

namespace gencompact {

/// Data-plane configuration of one SP(C, A, R) scan. Every scan takes the
/// one path ScanTable describes, so there is nothing to configure; the
/// struct stays so that callers that pass `ScanOptions{}` keep compiling.
struct ScanOptions {};

/// Rows per filter batch: the mirror filter runs over fixed-size row-id
/// ranges [k * kScanBatchRows, (k + 1) * kScanBatchRows).
inline constexpr size_t kScanBatchRows = 1024;

/// Executes SP(cond, attrs, table) with set semantics, on the table's
/// dictionary-coded column mirror (Table::columns), which builds the
/// condition's and the projection's columns on first use:
///   1. the compiled condition filters the condition columns in batches
///      of kScanBatchRows, collecting the survivors' row ids;
///   2. the survivors' projected cells are hashed column by column
///      (ColumnStore::HashRows — a string cell's hash is its dictionary
///      entry's, computed once per distinct value);
///   3. duplicates are dropped on row ids (BatchDeduper), in a pass that
///      ends before the first Row is built, so no Row is built for a
///      duplicate;
///   4. each first occurrence is built from the mirror with the hash
///      already computed and inserted in ascending row-id order.
/// The result holds the rows, per-cell Value types and RowSet iteration
/// order of a per-row EvalCondition + project + insert walk over
/// Table::rows().
Result<RowSet> ScanTable(const Table& table, const ConditionNode& cond,
                         const AttributeSet& attrs,
                         const ScanOptions& options = {});

/// Mediator-side SP over an intermediate result: filter `input` row by row
/// with `cond` (compiled once against input's layout) and project each
/// match to `out_attrs`, in input iteration order.
Result<RowSet> FilterRows(const RowSet& input, const ConditionNode& cond,
                          const AttributeSet& out_attrs, const Schema& schema);

}  // namespace gencompact

#endif  // GENCOMPACT_EXEC_SCAN_H_
