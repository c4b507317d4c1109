#ifndef GENCOMPACT_EXEC_SCAN_H_
#define GENCOMPACT_EXEC_SCAN_H_

#include <cstdint>

#include "common/result.h"
#include "expr/condition.h"
#include "storage/row_set.h"
#include "storage/table.h"

namespace gencompact {

/// Data-plane configuration of one SP(C, A, R) scan.
struct ScanOptions {
  /// Both settings compile the condition once and filter it over the
  /// table's dictionary-coded column mirror (Table::columns) in batches.
  /// 0 = project each matching row from the table's rows, in ascending row
  /// order: the rows, cell types and RowSet order of a per-row
  /// EvalCondition walk. > 0 = the columnar batch path: batches of
  /// `batch_width` rows, and duplicates are eliminated by batch-level
  /// hashing on row ids before any Row is materialized from the mirror.
  size_t batch_width = 0;
  /// Batch path only: ship the deduplicated result through the compact
  /// columnar wire encoding (the wrapper-transfer format) instead of
  /// materialized rows. Results are identical; metrics record the bytes.
  bool wire_encode = false;
};

struct ScanMetrics {
  uint64_t wire_bytes = 0;  ///< encoded transfer size (0 unless wire_encode)
};

/// Executes SP(cond, attrs, table) with set semantics: filter the table's
/// rows with `cond`, project to `attrs`, eliminate duplicates. The paths
/// selected by `options` return value-identical RowSets.
Result<RowSet> ScanTable(const Table& table, const ConditionNode& cond,
                         const AttributeSet& attrs, const ScanOptions& options,
                         ScanMetrics* metrics = nullptr);

/// Mediator-side SP over an intermediate result: filter `input` with
/// `cond` (evaluated against input's layout) and project to `out_attrs`.
/// batch_width as in ScanOptions; no wire encoding (mediator-internal).
Result<RowSet> FilterRows(const RowSet& input, const ConditionNode& cond,
                          const AttributeSet& out_attrs, const Schema& schema,
                          size_t batch_width);

}  // namespace gencompact

#endif  // GENCOMPACT_EXEC_SCAN_H_
