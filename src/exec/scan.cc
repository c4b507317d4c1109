#include "exec/scan.h"

#include <algorithm>

#include "expr/batch_eval.h"
#include "storage/column_batch.h"

namespace gencompact {

Result<RowSet> ScanTable(const Table& table, const ConditionNode& cond,
                         const AttributeSet& attrs, const ScanOptions&) {
  const Schema& schema = table.schema();
  GC_ASSIGN_OR_RETURN(
      const CompiledEvaluator evaluator,
      CompiledEvaluator::Compile(cond, table.FullLayout(), schema));
  const ColumnStore& store = table.columns(attrs.Union(evaluator.slots()));

  // 1. Filter: the survivors' row ids, ascending.
  std::vector<uint32_t> survivors;
  const uint32_t num_rows = static_cast<uint32_t>(store.num_rows());
  ColumnBatch batch;
  batch.store = &store;
  for (uint32_t begin = 0; begin < num_rows; begin += kScanBatchRows) {
    batch.begin = begin;
    batch.end = std::min<uint32_t>(num_rows, begin + kScanBatchRows);
    evaluator.FilterBatch(&batch);
    survivors.insert(survivors.end(), batch.selection.begin(),
                     batch.selection.end());
  }

  // 2. Hash the survivors' projected cells.
  const std::vector<int> cols = attrs.Indices();
  std::vector<size_t> hashes;
  store.HashRows(survivors, cols, &hashes);

  // 3. Keep each tuple's first occurrence, compacting survivors and hashes
  // in place. The dedup table is gone before the first Row is built:
  // probing it between row builds ran E15's download-all ~20% slower.
  size_t num_unique = 0;
  {
    BatchDeduper dedup(&store, cols, survivors.size());
    for (size_t i = 0; i < survivors.size(); ++i) {
      if (dedup.AddIfNew(hashes[i], survivors[i])) {
        survivors[num_unique] = survivors[i];
        hashes[num_unique] = hashes[i];
        ++num_unique;
      }
    }
  }

  // 4. Build the first occurrences, in ascending row-id order.
  RowSet result(RowLayout(attrs, schema.num_attributes()));
  for (size_t i = 0; i < num_unique; ++i) {
    result.Insert(store.MaterializeRow(survivors[i], cols, hashes[i]));
  }
  return result;
}

Result<RowSet> FilterRows(const RowSet& input, const ConditionNode& cond,
                          const AttributeSet& out_attrs, const Schema& schema) {
  const RowLayout& in_layout = input.layout();
  const RowLayout out_layout(out_attrs, schema.num_attributes());
  GC_ASSIGN_OR_RETURN(const CompiledEvaluator evaluator,
                      CompiledEvaluator::Compile(cond, in_layout, schema));
  RowSet result(out_layout);
  for (const Row& row : input.rows()) {
    if (evaluator.Matches(row)) {
      result.Insert(in_layout.Project(row, out_layout));
    }
  }
  return result;
}

}  // namespace gencompact
