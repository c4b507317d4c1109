#include "exec/scan.h"

#include <algorithm>

#include "expr/batch_eval.h"
#include "storage/column_batch.h"
#include "storage/wire_format.h"

namespace gencompact {

namespace {

/// Batch size of the width-0 scan: the mirror filter runs over fixed-size
/// batches even when the caller asked for no batching.
constexpr size_t kScanBatchRows = 1024;

/// The shared filter pump: runs `evaluator` over [0, store.num_rows()) one
/// batch at a time and hands each batch's survivors (ascending row ids) to
/// `visit`.
template <typename Visit>
void ForEachMatch(const ColumnStore& store, const CompiledEvaluator& evaluator,
                  size_t batch_width, Visit&& visit) {
  const uint32_t num_rows = static_cast<uint32_t>(store.num_rows());
  ColumnBatch batch;
  batch.store = &store;
  for (uint32_t begin = 0; begin < num_rows;
       begin += static_cast<uint32_t>(batch_width)) {
    batch.begin = begin;
    batch.end = static_cast<uint32_t>(
        std::min<size_t>(num_rows, begin + batch_width));
    evaluator.FilterBatch(&batch);
    if (!batch.selection.empty()) visit(batch.selection);
  }
}

/// Filters through `evaluator`, hashes the survivors column-wise, and keeps
/// the first occurrence of every distinct projected tuple. Returns unique
/// row ids in first-occurrence order.
std::vector<uint32_t> FilterAndDedup(const ColumnStore& store,
                                     const CompiledEvaluator& evaluator,
                                     const std::vector<int>& proj_cols,
                                     size_t batch_width) {
  BatchDeduper dedup(&store, proj_cols);
  std::vector<uint32_t> unique;
  std::vector<size_t> hashes;
  ForEachMatch(store, evaluator, batch_width,
               [&](const std::vector<uint32_t>& selection) {
                 store.HashRows(selection, proj_cols, &hashes);
                 for (size_t i = 0; i < selection.size(); ++i) {
                   if (dedup.AddIfNew(hashes[i], selection[i])) {
                     unique.push_back(selection[i]);
                   }
                 }
               });
  return unique;
}

}  // namespace

Result<RowSet> ScanTable(const Table& table, const ConditionNode& cond,
                         const AttributeSet& attrs, const ScanOptions& options,
                         ScanMetrics* metrics) {
  const Schema& schema = table.schema();
  const RowLayout full = table.FullLayout();
  const RowLayout projected(attrs, schema.num_attributes());
  GC_ASSIGN_OR_RETURN(const CompiledEvaluator evaluator,
                      CompiledEvaluator::Compile(cond, full, schema));

  if (options.batch_width == 0) {
    // Filter on the mirror's condition columns, then build only the
    // matching rows, projected from the table's own rows in ascending row
    // id order — the rows, cell types and insertion order of a row walk.
    const ColumnStore& store = table.columns(evaluator.slots());
    const std::vector<Row>& rows = table.rows();
    RowSet result(projected);
    ForEachMatch(store, evaluator, kScanBatchRows,
                 [&](const std::vector<uint32_t>& selection) {
                   for (const uint32_t row : selection) {
                     result.Insert(full.Project(rows[row], projected));
                   }
                 });
    return result;
  }

  // Batch path: the same mirror, with the projected columns built too;
  // duplicate elimination on row ids (no Row is materialized for a
  // duplicate), then ship the survivors — through the columnar wire format
  // when this scan models a wrapper transfer.
  const ColumnStore& store = table.columns(attrs.Union(evaluator.slots()));
  const std::vector<int> proj_cols = attrs.Indices();
  const std::vector<uint32_t> unique =
      FilterAndDedup(store, evaluator, proj_cols, options.batch_width);

  if (options.wire_encode) {
    const std::string wire =
        EncodeColumnar(store, proj_cols, unique, attrs.bits(),
                       static_cast<uint32_t>(schema.num_attributes()));
    if (metrics != nullptr) metrics->wire_bytes += wire.size();
    return DecodeColumnar(wire);
  }
  RowSet result(projected);
  for (const uint32_t row : unique) {
    result.Insert(store.MaterializeRow(row, proj_cols));
  }
  return result;
}

Result<RowSet> FilterRows(const RowSet& input, const ConditionNode& cond,
                          const AttributeSet& out_attrs, const Schema& schema,
                          size_t batch_width) {
  const RowLayout& in_layout = input.layout();
  const RowLayout out_layout(out_attrs, schema.num_attributes());
  GC_ASSIGN_OR_RETURN(const CompiledEvaluator evaluator,
                      CompiledEvaluator::Compile(cond, in_layout, schema));

  if (batch_width == 0) {
    RowSet result(out_layout);
    for (const Row& row : input.rows()) {
      if (evaluator.Matches(row)) {
        result.Insert(in_layout.Project(row, out_layout));
      }
    }
    return result;
  }

  // Batch path: transpose the intermediate result once (store columns are
  // the input layout's slots), then run the same filter/dedup pump.
  const ColumnStore store = TransposeRowSet(input, schema);
  std::vector<int> proj_slots;
  proj_slots.reserve(out_attrs.size());
  for (const int index : out_attrs.Indices()) {
    proj_slots.push_back(in_layout.SlotOf(index));
  }
  const std::vector<uint32_t> unique =
      FilterAndDedup(store, evaluator, proj_slots, batch_width);
  RowSet result(out_layout);
  for (const uint32_t row : unique) {
    result.Insert(store.MaterializeRow(row, proj_slots));
  }
  return result;
}

}  // namespace gencompact
