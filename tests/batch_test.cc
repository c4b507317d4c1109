// Unit coverage of the scan data plane: ColumnStore round trips, the
// mirror's per-column build and append contract, cached Row hashes, the
// row-id deduper, the compiled evaluator (row and batch paths) against the
// reference EvalCondition, and ScanTable against a per-row EvalCondition
// walk.
//
// Parity here means *exact* results: the same tuples with the same per-cell
// Value types (an Int(2) must not come back as Double(2.0), even though the
// two compare and hash equal — and even though both print "2", which is why
// the signature helper below renders type:text, not just text).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "exec/scan.h"
#include "expr/batch_eval.h"
#include "expr/condition_eval.h"
#include "expr/condition_parser.h"
#include "storage/column_batch.h"
#include "workload/datasets.h"

namespace gencompact {
namespace {

ConditionPtr Parse(const std::string& text) {
  Result<ConditionPtr> cond = ParseCondition(text);
  EXPECT_TRUE(cond.ok()) << cond.status().ToString();
  return std::move(cond).value();
}

// Type-exact rendering of one row, each cell as type:text.
std::string RowSignatureOf(const Row& row) {
  std::string sig;
  for (const Value& v : row.values()) {
    sig += ValueTypeName(v.type());
    sig += ':';
    sig += v.ToString();
    sig += '|';
  }
  return sig;
}

// Type-exact signature of a row set: its sorted rows' signatures. Two
// RowSets with equal signatures hold identical Values, not merely
// Compare-equal ones.
std::vector<std::string> Signature(const RowSet& rows) {
  std::vector<std::string> out;
  for (const Row& row : rows.SortedRows()) out.push_back(RowSignatureOf(row));
  return out;
}

void ExpectExactlyEqual(const RowSet& a, const RowSet& b,
                        const std::string& context) {
  EXPECT_EQ(a.layout().attrs().bits(), b.layout().attrs().bits()) << context;
  EXPECT_EQ(Signature(a), Signature(b)) << context;
}

// SP(cond, attrs, table) the original way: EvalCondition per row, then
// project and insert each match in row order.
RowSet OracleScan(const Table& table, const ConditionNode& cond,
                  const AttributeSet& attrs) {
  const RowLayout full = table.FullLayout();
  const RowLayout projected(attrs, table.schema().num_attributes());
  RowSet result(projected);
  for (const Row& row : table.rows()) {
    const Result<bool> matches =
        EvalCondition(cond, row, full, table.schema());
    EXPECT_TRUE(matches.ok()) << cond.ToString();
    if (matches.ok() && *matches) result.Insert(full.Project(row, projected));
  }
  return result;
}

// A schema exercising every column kind, with storage deliberately using
// the numeric cross-typing Table::Append permits.
Schema MixedSchema() {
  return Schema({{"s", ValueType::kString},
                 {"i", ValueType::kInt},
                 {"d", ValueType::kDouble},
                 {"b", ValueType::kBool}});
}

std::unique_ptr<Table> MixedTable() {
  auto table = std::make_unique<Table>("mixed", MixedSchema());
  const auto add = [&table](Value s, Value i, Value d, Value b) {
    EXPECT_TRUE(table
                    ->Append(Row({std::move(s), std::move(i), std::move(d),
                                  std::move(b)}))
                    .ok());
  };
  add(Value::String("alpha"), Value::Int(1), Value::Double(1.5),
      Value::Bool(true));
  add(Value::String("beta"), Value::Int(-7), Value::Double(-0.25),
      Value::Bool(false));
  // Numeric cross-typing: a Double stored in the int column and an Int in
  // the double column.
  add(Value::String("gamma"), Value::Double(2.5), Value::Int(4),
      Value::Bool(true));
  add(Value::String(""), Value::Int(1), Value::Double(1.5), Value::Bool(true));
  // Nulls in every column.
  add(Value::Null(), Value::Null(), Value::Null(), Value::Null());
  add(Value::String("alpha"), Value::Null(), Value::Double(1.5), Value::Null());
  // Duplicate of row 0 (set semantics must collapse projections).
  add(Value::String("alpha"), Value::Int(1), Value::Double(1.5),
      Value::Bool(true));
  // Int(2) vs Double(2.0): Compare-equal, type-distinct.
  add(Value::String("two"), Value::Int(2), Value::Double(7.0),
      Value::Bool(false));
  add(Value::String("two"), Value::Double(2.0), Value::Double(7.0),
      Value::Bool(false));
  // Extreme numerics.
  add(Value::String("inf"), Value::Int(std::numeric_limits<int64_t>::min()),
      Value::Double(std::numeric_limits<double>::infinity()),
      Value::Bool(false));
  return table;
}

// Conditions covering every compiled kernel: typed comparisons, string
// predicates, cross-type (fixed-result) atoms, NULL constants, the trivial
// condition, and ∧/∨ nests.
std::vector<ConditionPtr> KernelConditions() {
  std::vector<ConditionPtr> conds;
  conds.push_back(ConditionNode::True());
  for (const CompareOp op :
       {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt, CompareOp::kLe,
        CompareOp::kGt, CompareOp::kGe}) {
    conds.push_back(ConditionNode::Atom("i", op, Value::Int(1)));
    conds.push_back(ConditionNode::Atom("i", op, Value::Double(2.0)));
    conds.push_back(ConditionNode::Atom("d", op, Value::Double(1.5)));
    conds.push_back(ConditionNode::Atom("d", op, Value::Int(4)));
    conds.push_back(ConditionNode::Atom("s", op, Value::String("beta")));
    conds.push_back(ConditionNode::Atom("b", op, Value::Bool(true)));
    // Cross-type atoms: fixed result per op via type ranks.
    conds.push_back(ConditionNode::Atom("s", op, Value::Int(3)));
    conds.push_back(ConditionNode::Atom("i", op, Value::String("x")));
    conds.push_back(ConditionNode::Atom("b", op, Value::Int(0)));
    // NULL constants: always false.
    conds.push_back(ConditionNode::Atom("i", op, Value::Null()));
  }
  conds.push_back(
      ConditionNode::Atom("s", CompareOp::kContains, Value::String("a")));
  conds.push_back(
      ConditionNode::Atom("s", CompareOp::kStartsWith, Value::String("al")));
  conds.push_back(
      ConditionNode::Atom("s", CompareOp::kContains, Value::String("")));
  // String predicate against a non-string column: statically false.
  conds.push_back(
      ConditionNode::Atom("i", CompareOp::kContains, Value::String("1")));
  // Connectives (including an all-filtered ∧ and an all-pass ∨ shape).
  std::vector<ConditionPtr> and_children;
  and_children.push_back(
      ConditionNode::Atom("i", CompareOp::kGe, Value::Int(0)));
  and_children.push_back(
      ConditionNode::Atom("b", CompareOp::kEq, Value::Bool(true)));
  conds.push_back(ConditionNode::And(std::move(and_children)));
  std::vector<ConditionPtr> or_children;
  or_children.push_back(
      ConditionNode::Atom("s", CompareOp::kEq, Value::String("alpha")));
  or_children.push_back(
      ConditionNode::Atom("d", CompareOp::kLt, Value::Double(0.0)));
  conds.push_back(ConditionNode::Or(std::move(or_children)));
  std::vector<ConditionPtr> never;
  never.push_back(ConditionNode::Atom("i", CompareOp::kLt, Value::Int(-100)));
  never.push_back(
      ConditionNode::Atom("s", CompareOp::kEq, Value::String("alpha")));
  conds.push_back(ConditionNode::And(std::move(never)));
  std::vector<ConditionPtr> always;
  always.push_back(
      ConditionNode::Atom("i", CompareOp::kNe, Value::Int(123456)));
  always.push_back(
      ConditionNode::Atom("b", CompareOp::kEq, Value::Bool(false)));
  conds.push_back(ConditionNode::Or(std::move(always)));
  conds.push_back(Parse(
      "(s startswith \"a\" and i <= 1) or (d > 5.0 and b = true)"));
  return conds;
}

TEST(RowHashTest, CachedHashMatchesValueFold) {
  const Row row({Value::String("x"), Value::Int(3), Value::Null()});
  size_t expected = 0x51ed270b7a2cf321ull;
  for (const Value& v : row.values()) {
    expected ^=
        v.Hash() + 0x9e3779b97f4a7c15ull + (expected << 6) + (expected >> 2);
  }
  EXPECT_EQ(row.Hash(), expected);
  // Equal rows agree; the default row equals the explicitly empty row.
  EXPECT_EQ(row.Hash(),
            Row({Value::String("x"), Value::Int(3), Value::Null()}).Hash());
  EXPECT_EQ(Row().Hash(), Row(std::vector<Value>{}).Hash());
}

TEST(RowSetTest, SortedRowsIsValueWiseNotTextual) {
  RowSet a(RowLayout(AttributeSet::FromBits(0x1), 1));
  RowSet b(RowLayout(AttributeSet::FromBits(0x1), 1));
  // Textual sorting would put "10" before "2"; Value-wise sorting must not.
  for (const int64_t v : {10, 2, 1, 30}) a.Insert(Row({Value::Int(v)}));
  for (const int64_t v : {30, 1, 10, 2}) b.Insert(Row({Value::Int(v)}));
  const std::vector<Row> sorted = a.SortedRows();
  ASSERT_EQ(sorted.size(), 4u);
  EXPECT_EQ(sorted[0].value(0), Value::Int(1));
  EXPECT_EQ(sorted[1].value(0), Value::Int(2));
  EXPECT_EQ(sorted[2].value(0), Value::Int(10));
  EXPECT_EQ(sorted[3].value(0), Value::Int(30));
  // Deterministic across insertion orders.
  EXPECT_EQ(Signature(a), Signature(b));
}

TEST(RowSetTest, MergeFromAndIntersectWithMatchStaticOps) {
  const RowLayout layout(AttributeSet::FromBits(0x1), 1);
  const auto make = [&layout](std::vector<int64_t> vs) {
    RowSet s(layout);
    for (const int64_t v : vs) s.Insert(Row({Value::Int(v)}));
    return s;
  };
  // The in-place ops must give exactly the sets a union and an
  // intersection of {1, 2, 3} and {3, 4} hold.
  const RowSet b = make({3, 4});
  RowSet merged = make({1, 2, 3});
  merged.MergeFrom(make({3, 4}));
  ExpectExactlyEqual(merged, make({1, 2, 3, 4}), "merge");
  RowSet intersected = make({1, 2, 3});
  intersected.IntersectWith(b);
  ExpectExactlyEqual(intersected, make({3}), "intersect");
  // Intersecting with a disjoint set empties it.
  RowSet disjoint = make({1, 2});
  disjoint.IntersectWith(b);
  EXPECT_TRUE(disjoint.empty());
  // Merging into an empty set adopts the donor's rows.
  RowSet empty(layout);
  empty.MergeFrom(make({7, 8}));
  ExpectExactlyEqual(empty, make({7, 8}), "merge into empty");
}

TEST(ColumnStoreTest, RoundTripsCellsExactly) {
  const std::unique_ptr<Table> owned = MixedTable();
  const Table& table = *owned;
  const ColumnStore& store = table.columns(table.schema().AllAttributes());
  ASSERT_EQ(store.num_rows(), table.num_rows());
  ASSERT_EQ(store.num_columns(), 4u);
  const std::vector<int> all_cols{0, 1, 2, 3};
  for (uint32_t r = 0; r < store.num_rows(); ++r) {
    const Row& original = table.rows()[r];
    const Row materialized =
        store.MaterializeRow(r, all_cols, store.HashRow(r, all_cols));
    ASSERT_EQ(materialized.size(), original.size());
    for (size_t c = 0; c < original.size(); ++c) {
      // Type-exact, not merely Compare-equal.
      EXPECT_EQ(materialized.value(c).type(), original.value(c).type())
          << "row " << r << " col " << c;
      EXPECT_EQ(materialized.value(c).ToString(), original.value(c).ToString())
          << "row " << r << " col " << c;
    }
    EXPECT_EQ(store.HashRow(r, all_cols), original.Hash()) << "row " << r;
  }
  // Column-wise batch hashing agrees with per-row hashing.
  std::vector<uint32_t> ids(store.num_rows());
  for (uint32_t r = 0; r < store.num_rows(); ++r) ids[r] = r;
  std::vector<size_t> hashes;
  store.HashRows(ids, all_cols, &hashes);
  ASSERT_EQ(hashes.size(), ids.size());
  for (uint32_t r = 0; r < store.num_rows(); ++r) {
    EXPECT_EQ(hashes[r], store.HashRow(r, all_cols)) << "row " << r;
  }
  // Projected hashing matches the hash of the materialized projection's
  // values, folded afresh.
  const std::vector<int> proj{0, 2};
  for (uint32_t r = 0; r < store.num_rows(); ++r) {
    const size_t hash = store.HashRow(r, proj);
    EXPECT_EQ(hash, Row(store.MaterializeRow(r, proj, hash).values()).Hash());
  }
}

TEST(ColumnStoreTest, RowsEqualFollowsValueCompare) {
  const std::unique_ptr<Table> owned = MixedTable();
  const Table& table = *owned;
  const ColumnStore& store = table.columns(table.schema().AllAttributes());
  const std::vector<int> all_cols{0, 1, 2, 3};
  // Row 0 and row 6 are stored duplicates.
  EXPECT_TRUE(store.RowsEqual(0, 6, all_cols));
  EXPECT_FALSE(store.RowsEqual(0, 1, all_cols));
  // Rows 7 and 8 differ only in Int(2) vs Double(2.0) in column 1 —
  // Compare-equal, so they are duplicates under set semantics (exactly
  // like the row path's unordered_set over Value::operator==).
  EXPECT_TRUE(store.RowsEqual(7, 8, all_cols));
  // Null vs non-null cells differ.
  EXPECT_FALSE(store.RowsEqual(0, 5, all_cols));
  // Over the string column alone, rows 7 and 8 agree trivially.
  EXPECT_TRUE(store.RowsEqual(7, 8, {0}));
}

TEST(ColumnStoreTest, ScanBuildsOnlyConditionAndProjectionColumns) {
  // The memory contract: a scan mirrors the attributes its condition reads
  // and the ones it projects (it hashes, deduplicates and builds its answer
  // from them), no others; a string column costs one code per cell plus a
  // dictionary of its distinct values.
  const Dataset cars = MakeCarSource(200000, /*seed=*/7);
  const Table& table = *cars.table;
  const Schema& schema = table.schema();
  EXPECT_TRUE(table.built_columns().empty());
  const Result<RowSet> sedans =
      ScanTable(table, *Parse("style = \"sedan\""),
                *schema.MakeSet({"make", "model"}), ScanOptions());
  ASSERT_TRUE(sedans.ok());
  EXPECT_FALSE(sedans->empty());
  const AttributeSet built = *schema.MakeSet({"style", "make", "model"});
  EXPECT_EQ(table.built_columns(), built);

  const ColumnStore& store = table.columns(built);
  EXPECT_EQ(table.built_columns(), built);
  EXPECT_EQ(store.num_rows(), 200000u);
  const Column& column =
      store.column(static_cast<size_t>(*schema.IndexOf("style")));
  EXPECT_EQ(column.codes.size(), 200000u);
  EXPECT_EQ(column.dict.size(), 4u);  // sedan, coupe, suv, wagon
  EXPECT_TRUE(column.tag.empty());
  for (size_t i = 0; i < store.num_columns(); ++i) {
    if (!built.Contains(static_cast<int>(i))) {
      EXPECT_EQ(store.column(i).size(), 0u) << schema.attribute(i).name;
    }
  }
}

TEST(ColumnStoreTest, AppendAfterScanExtendsBuiltColumns) {
  const Schema schema({{"k", ValueType::kString}, {"v", ValueType::kInt}});
  Table table("t", schema);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        table.AppendValues({Value::String(i % 2 ? "a" : "b"), Value::Int(i)})
            .ok());
  }
  const AttributeSet all = schema.AllAttributes();
  const AttributeSet keys = *schema.MakeSet({"k"});
  const auto expect_oracle = [&](const std::string& text,
                                 const AttributeSet& attrs) {
    const ConditionPtr cond = Parse(text);
    const Result<RowSet> scanned = ScanTable(table, *cond, attrs);
    ASSERT_TRUE(scanned.ok()) << text;
    ExpectExactlyEqual(*scanned, OracleScan(table, *cond, attrs), text);
  };
  expect_oracle("k = \"a\"", keys);
  expect_oracle("k = \"new\"", keys);  // not in the dictionary yet
  EXPECT_EQ(table.built_columns(), keys);

  // Appended after the columns were built: a stored value, a value new
  // to the dictionary, and a null.
  ASSERT_TRUE(table.AppendValues({Value::String("a"), Value::Int(100)}).ok());
  ASSERT_TRUE(table.AppendValues({Value::String("new"), Value::Int(101)}).ok());
  ASSERT_TRUE(table.AppendValues({Value::Null(), Value::Int(102)}).ok());
  expect_oracle("k = \"a\"", keys);
  expect_oracle("k = \"new\"", keys);
  expect_oracle("k != \"b\"", keys);
  expect_oracle("v >= 100", all);  // first use of v: built over all 13 rows

  const ColumnStore& store = table.columns(all);
  EXPECT_EQ(store.num_rows(), 13u);
  EXPECT_EQ(store.column(0).codes.size(), 13u);
  EXPECT_EQ(store.column(0).dict.size(), 3u);  // b, a, new
  EXPECT_EQ(store.column(1).size(), 13u);
}

TEST(BatchDeduperTest, KeepsFirstOccurrenceOfEachTuple) {
  const std::unique_ptr<Table> owned = MixedTable();
  const Table& table = *owned;
  const ColumnStore& store = table.columns(table.schema().AllAttributes());
  const std::vector<int> all_cols{0, 1, 2, 3};
  BatchDeduper deduper(&store, all_cols, store.num_rows());
  std::vector<uint32_t> kept;
  for (uint32_t r = 0; r < store.num_rows(); ++r) {
    if (deduper.AddIfNew(store.HashRow(r, all_cols), r)) kept.push_back(r);
  }
  // Row 6 duplicates row 0 and row 8 duplicates row 7 (Compare-equal);
  // everything else is distinct.
  const std::vector<uint32_t> expected{0, 1, 2, 3, 4, 5, 7, 9};
  EXPECT_EQ(kept, expected);
  EXPECT_EQ(deduper.unique_count(), expected.size());
}

TEST(BatchDeduperTest, EqualHashesOfUnequalRowsAreVerifiedOnTheColumns) {
  // One hash for every row: each probe meets a slot whose hash bits match,
  // so only the column comparison tells duplicates from distinct tuples.
  const std::unique_ptr<Table> owned = MixedTable();
  const Table& table = *owned;
  const ColumnStore& store = table.columns(table.schema().AllAttributes());
  const std::vector<int> all_cols{0, 1, 2, 3};
  for (const size_t hash : {size_t{0}, size_t{42}, ~size_t{0}}) {
    BatchDeduper deduper(&store, all_cols, store.num_rows());
    std::vector<uint32_t> kept;
    for (uint32_t r = 0; r < store.num_rows(); ++r) {
      if (deduper.AddIfNew(hash, r)) kept.push_back(r);
    }
    const std::vector<uint32_t> expected{0, 1, 2, 3, 4, 5, 7, 9};
    EXPECT_EQ(kept, expected) << "hash " << hash;
    // A second pass finds every row already present, past the colliding
    // slots in front of it.
    for (uint32_t r = 0; r < store.num_rows(); ++r) {
      EXPECT_FALSE(deduper.AddIfNew(hash, r)) << "row " << r;
    }
    EXPECT_EQ(deduper.unique_count(), expected.size());
  }
  // Hashes that differ only in their lower bits (the probe start) and
  // only in their upper bits (the stored tag) are told apart as well.
  BatchDeduper deduper(&store, {0}, 4);
  EXPECT_TRUE(deduper.AddIfNew(0x100000001ull, 0));   // "alpha"
  EXPECT_TRUE(deduper.AddIfNew(0x100000002ull, 1));   // "beta"
  EXPECT_TRUE(deduper.AddIfNew(0x200000001ull, 2));   // "gamma"
  EXPECT_FALSE(deduper.AddIfNew(0x100000001ull, 6));  // "alpha" again
  EXPECT_EQ(deduper.unique_count(), 3u);
}

TEST(CompiledEvaluatorTest, RowPathMatchesEvalCondition) {
  const std::unique_ptr<Table> owned = MixedTable();
  const Table& table = *owned;
  const Schema& schema = table.schema();
  const RowLayout full = table.FullLayout();
  for (const ConditionPtr& cond : KernelConditions()) {
    const Result<CompiledEvaluator> compiled =
        CompiledEvaluator::Compile(*cond, full, schema);
    ASSERT_TRUE(compiled.ok()) << cond->ToString();
    for (const Row& row : table.rows()) {
      const Result<bool> expected = EvalCondition(*cond, row, full, schema);
      ASSERT_TRUE(expected.ok());
      EXPECT_EQ(compiled->Matches(row), *expected)
          << cond->ToString() << " on " << row.ToString();
    }
  }
}

TEST(CompiledEvaluatorTest, BatchPathMatchesEvalCondition) {
  const std::unique_ptr<Table> owned = MixedTable();
  const Table& table = *owned;
  const Schema& schema = table.schema();
  const RowLayout full = table.FullLayout();
  const ColumnStore& store = table.columns(table.schema().AllAttributes());
  for (const ConditionPtr& cond : KernelConditions()) {
    const Result<CompiledEvaluator> compiled =
        CompiledEvaluator::Compile(*cond, full, schema);
    ASSERT_TRUE(compiled.ok()) << cond->ToString();
    for (const size_t width : {size_t{1}, size_t{3}, size_t{16}}) {
      std::vector<uint32_t> selected;
      ColumnBatch batch;
      batch.store = &store;
      for (uint32_t begin = 0; begin < store.num_rows();
           begin += static_cast<uint32_t>(width)) {
        batch.begin = begin;
        batch.end = static_cast<uint32_t>(
            std::min<size_t>(store.num_rows(), begin + width));
        compiled->FilterBatch(&batch);
        // The selection holds ascending, in-range row ids.
        for (size_t i = 0; i < batch.selection.size(); ++i) {
          ASSERT_GE(batch.selection[i], batch.begin);
          ASSERT_LT(batch.selection[i], batch.end);
          if (i > 0) {
          ASSERT_LT(batch.selection[i - 1], batch.selection[i]);
        }
        }
        selected.insert(selected.end(), batch.selection.begin(),
                        batch.selection.end());
      }
      std::vector<uint32_t> expected;
      for (uint32_t r = 0; r < store.num_rows(); ++r) {
        const Result<bool> matches =
            EvalCondition(*cond, table.rows()[r], full, schema);
        ASSERT_TRUE(matches.ok());
        if (*matches) expected.push_back(r);
      }
      EXPECT_EQ(selected, expected)
          << cond->ToString() << " at width " << width;
    }
  }
}

TEST(CompiledEvaluatorTest, CompileReportsEvalConditionErrors) {
  const std::unique_ptr<Table> owned = MixedTable();
  const Table& table = *owned;
  const ConditionPtr bad =
      ConditionNode::Atom("nope", CompareOp::kEq, Value::Int(1));
  const Result<CompiledEvaluator> compiled =
      CompiledEvaluator::Compile(*bad, table.FullLayout(), table.schema());
  ASSERT_FALSE(compiled.ok());
  const Result<bool> reference =
      EvalCondition(*bad, table.rows()[0], table.FullLayout(), table.schema());
  ASSERT_FALSE(reference.ok());
  EXPECT_EQ(compiled.status().code(), reference.status().code());
  EXPECT_EQ(compiled.status().message(), reference.status().message());
  // An attribute present in the schema but missing from the layout.
  const RowLayout narrow(*table.schema().MakeSet({"s"}),
                         table.schema().num_attributes());
  const ConditionPtr missing =
      ConditionNode::Atom("i", CompareOp::kEq, Value::Int(1));
  const Result<CompiledEvaluator> narrow_compiled =
      CompiledEvaluator::Compile(*missing, narrow, table.schema());
  ASSERT_FALSE(narrow_compiled.ok());
  EXPECT_EQ(narrow_compiled.status().code(), StatusCode::kNotFound);
}

TEST(ScanTableTest, BatchWidthsMatchRowPath) {
  // The mirror filter runs in batches of kScanBatchRows; tables just short
  // of, at, and past one and two batches put survivors, duplicates and
  // their first occurrences on both sides of every batch boundary. Each
  // scan must return the row walk's rows, cell types and RowSet order.
  const std::unique_ptr<Table> mixed = MixedTable();
  const Schema& schema = mixed->schema();
  const std::vector<AttributeSet> projections = {
      schema.AllAttributes(), *schema.MakeSet({"s"}),
      *schema.MakeSet({"s", "d"}), *schema.MakeSet({"i", "b"})};
  for (const size_t num_rows :
       {mixed->num_rows(), kScanBatchRows - 1, kScanBatchRows,
        kScanBatchRows + 1, 2 * kScanBatchRows + 3}) {
    Table table("mixed", schema);
    for (size_t r = 0; r < num_rows; ++r) {
      ASSERT_TRUE(table.Append(mixed->rows()[r % mixed->num_rows()]).ok());
    }
    for (const ConditionPtr& cond : KernelConditions()) {
      for (const AttributeSet& attrs : projections) {
        const RowSet reference = OracleScan(table, *cond, attrs);
        const Result<RowSet> scanned = ScanTable(table, *cond, attrs);
        ASSERT_TRUE(scanned.ok()) << cond->ToString();
        const std::string context =
            cond->ToString() + " rows " + std::to_string(num_rows);
        ExpectExactlyEqual(*scanned, reference, context);
        EXPECT_TRUE(std::equal(reference.rows().begin(),
                               reference.rows().end(),
                               scanned->rows().begin(), scanned->rows().end(),
                               [](const Row& a, const Row& b) {
                                 return RowSignatureOf(a) == RowSignatureOf(b);
                               }))
            << "row order, " << context;
      }
    }
  }
}

}  // namespace
}  // namespace gencompact
