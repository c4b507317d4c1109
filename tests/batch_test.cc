// Unit coverage of the columnar data plane: ColumnStore round trips, the
// mirror's per-column build and append contract, cached Row hashes, the
// compiled evaluator (row and batch paths) against the reference
// EvalCondition, the columnar wire format, ScanTable / FilterRows at every
// width against a per-row EvalCondition walk, and the batch paths of
// Source, Executor, Wrapper, and Mediator.
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

#include "exec/executor.h"
#include "exec/scan.h"
#include "expr/batch_eval.h"
#include "expr/condition_eval.h"
#include "expr/condition_parser.h"
#include "mediator/mediator.h"
#include "mediator/wrapper.h"
#include "ssdl/ssdl_parser.h"
#include "storage/column_batch.h"
#include "storage/wire_format.h"
#include "workload/datasets.h"

namespace gencompact {
namespace {

ConditionPtr Parse(const std::string& text) {
  Result<ConditionPtr> cond = ParseCondition(text);
  EXPECT_TRUE(cond.ok()) << cond.status().ToString();
  return std::move(cond).value();
}

// Type-exact signature of a row set: sorted rows, each cell rendered as
// type:text. Two RowSets with equal signatures hold identical Values, not
// merely Compare-equal ones.
std::vector<std::string> Signature(const RowSet& rows) {
  std::vector<std::string> out;
  for (const Row& row : rows.SortedRows()) {
    std::string sig;
    for (const Value& v : row.values()) {
      sig += ValueTypeName(v.type());
      sig += ':';
      sig += v.ToString();
      sig += '|';
    }
    out.push_back(std::move(sig));
  }
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
    const Row materialized = store.MaterializeRow(r, all_cols);
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
  // Projected hashing matches the materialized projection's cached hash.
  const std::vector<int> proj{0, 2};
  for (uint32_t r = 0; r < store.num_rows(); ++r) {
    EXPECT_EQ(store.HashRow(r, proj), store.MaterializeRow(r, proj).Hash());
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

TEST(ColumnStoreTest, ScanBuildsOnlyTheFilteredColumn) {
  // The memory contract: a scan mirrors only the attributes its condition
  // reads, and a string column costs one code per cell plus a dictionary of
  // its distinct values.
  const Dataset cars = MakeCarSource(200000, /*seed=*/7);
  const Table& table = *cars.table;
  const Schema& schema = table.schema();
  EXPECT_TRUE(table.built_columns().empty());
  const Result<RowSet> sedans =
      ScanTable(table, *Parse("style = \"sedan\""),
                *schema.MakeSet({"make", "model"}), ScanOptions());
  ASSERT_TRUE(sedans.ok());
  EXPECT_FALSE(sedans->empty());
  const AttributeSet style = *schema.MakeSet({"style"});
  EXPECT_EQ(table.built_columns(), style);

  const ColumnStore& store = table.columns(style);
  EXPECT_EQ(table.built_columns(), style);
  EXPECT_EQ(store.num_rows(), 200000u);
  const Column& column =
      store.column(static_cast<size_t>(*schema.IndexOf("style")));
  EXPECT_EQ(column.codes.size(), 200000u);
  EXPECT_EQ(column.dict.size(), 4u);  // sedan, coupe, suv, wagon
  EXPECT_TRUE(column.tag.empty());
  for (size_t i = 0; i < store.num_columns(); ++i) {
    if (!style.Contains(static_cast<int>(i))) {
      EXPECT_EQ(store.column(i).size(), 0u) << schema.attribute(i).name;
    }
  }
}

TEST(ColumnStoreTest, AppendAfterScanExtendsBuiltColumns) {
  const Schema schema({{"k", ValueType::kString}, {"v", ValueType::kInt}});
  for (const size_t width : {size_t{0}, size_t{1024}}) {
    Table table("t", schema);
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(
          table.AppendValues({Value::String(i % 2 ? "a" : "b"), Value::Int(i)})
              .ok());
    }
    ScanOptions options;
    options.batch_width = width;
    const AttributeSet all = schema.AllAttributes();
    const auto expect_oracle = [&](const std::string& text) {
      const ConditionPtr cond = Parse(text);
      const Result<RowSet> scanned = ScanTable(table, *cond, all, options);
      ASSERT_TRUE(scanned.ok()) << text;
      ExpectExactlyEqual(*scanned, OracleScan(table, *cond, all),
                         text + " width " + std::to_string(width));
    };
    expect_oracle("k = \"a\"");
    expect_oracle("k = \"new\"");  // not in the dictionary yet

    // Appended after the columns were built: a stored value, a value new
    // to the dictionary, and a null.
    ASSERT_TRUE(table.AppendValues({Value::String("a"), Value::Int(100)}).ok());
    ASSERT_TRUE(
        table.AppendValues({Value::String("new"), Value::Int(101)}).ok());
    ASSERT_TRUE(table.AppendValues({Value::Null(), Value::Int(102)}).ok());
    expect_oracle("k = \"a\"");
    expect_oracle("k = \"new\"");
    expect_oracle("k != \"b\"");
    expect_oracle("v >= 100");  // first use of v: built over all 13 rows

    const ColumnStore& store = table.columns(all);
    EXPECT_EQ(store.num_rows(), 13u);
    EXPECT_EQ(store.column(0).codes.size(), 13u);
    EXPECT_EQ(store.column(0).dict.size(), 3u);  // b, a, new
    EXPECT_EQ(store.column(1).size(), 13u);
  }
}

TEST(BatchDeduperTest, KeepsFirstOccurrenceOfEachTuple) {
  const std::unique_ptr<Table> owned = MixedTable();
  const Table& table = *owned;
  const ColumnStore& store = table.columns(table.schema().AllAttributes());
  const std::vector<int> all_cols{0, 1, 2, 3};
  BatchDeduper deduper(&store, all_cols);
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
  const std::unique_ptr<Table> owned = MixedTable();
  const Table& table = *owned;
  const Schema& schema = table.schema();
  const std::vector<AttributeSet> projections = {
      schema.AllAttributes(), *schema.MakeSet({"s"}),
      *schema.MakeSet({"s", "d"}), *schema.MakeSet({"i", "b"})};
  for (const ConditionPtr& cond : KernelConditions()) {
    for (const AttributeSet& attrs : projections) {
      const RowSet reference = OracleScan(table, *cond, attrs);
      for (const size_t width : {size_t{0}, size_t{1}, size_t{3}, size_t{7},
                                 size_t{64}, size_t{1024}}) {
        for (const bool wire : {false, true}) {
          if (width == 0 && wire) continue;  // width 0 never encodes
          ScanOptions options;
          options.batch_width = width;
          options.wire_encode = wire;
          ScanMetrics metrics;
          const Result<RowSet> batched =
              ScanTable(table, *cond, attrs, options, &metrics);
          ASSERT_TRUE(batched.ok()) << cond->ToString();
          ExpectExactlyEqual(*batched, reference,
                             cond->ToString() + " width " +
                                 std::to_string(width) +
                                 (wire ? " wire" : ""));
          EXPECT_EQ(metrics.wire_bytes > 0, wire) << cond->ToString();
        }
      }
    }
  }
}

TEST(FilterRowsTest, BatchWidthsMatchRowPath) {
  const std::unique_ptr<Table> owned = MixedTable();
  const Table& table = *owned;
  const Schema& schema = table.schema();
  // Intermediate result: the full table projected to {s, i, d}.
  const AttributeSet in_attrs = *schema.MakeSet({"s", "i", "d"});
  const Result<RowSet> input =
      ScanTable(table, *ConditionNode::True(), in_attrs, ScanOptions());
  ASSERT_TRUE(input.ok());
  const std::vector<AttributeSet> out_sets = {in_attrs, *schema.MakeSet({"s"}),
                                              *schema.MakeSet({"i", "d"})};
  std::vector<ConditionPtr> conds;
  conds.push_back(ConditionNode::True());
  conds.push_back(ConditionNode::Atom("i", CompareOp::kGe, Value::Int(0)));
  conds.push_back(
      ConditionNode::Atom("s", CompareOp::kContains, Value::String("a")));
  conds.push_back(Parse("d < 1.0 or s = \"two\""));
  conds.push_back(ConditionNode::Atom("i", CompareOp::kLt, Value::Int(-1000)));
  for (const ConditionPtr& cond : conds) {
    for (const AttributeSet& out : out_sets) {
      const Result<RowSet> reference = FilterRows(*input, *cond, out, schema,
                                                  /*batch_width=*/0);
      ASSERT_TRUE(reference.ok()) << cond->ToString();
      for (const size_t width : {size_t{1}, size_t{5}, size_t{64}}) {
        const Result<RowSet> batched =
            FilterRows(*input, *cond, out, schema, width);
        ASSERT_TRUE(batched.ok()) << cond->ToString();
        ExpectExactlyEqual(
            *batched, *reference,
            cond->ToString() + " width " + std::to_string(width));
      }
    }
  }
}

TEST(WireFormatTest, RoundTripsEdgeValues) {
  const std::unique_ptr<Table> owned = MixedTable();
  const Table& table = *owned;
  const Schema& schema = table.schema();
  const Result<RowSet> rows = ScanTable(table, *ConditionNode::True(),
                                        schema.AllAttributes(), ScanOptions());
  ASSERT_TRUE(rows.ok());
  const std::string wire = EncodeColumnar(*rows, schema);
  const Result<RowSet> decoded = DecodeColumnar(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectExactlyEqual(*decoded, *rows, "wire round trip");
}

TEST(WireFormatTest, RoundTripsEmptySet) {
  const Schema schema = MixedSchema();
  const RowSet empty(
      RowLayout(*schema.MakeSet({"s", "b"}), schema.num_attributes()));
  const Result<RowSet> decoded = DecodeColumnar(EncodeColumnar(empty, schema));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->empty());
  EXPECT_EQ(decoded->layout().attrs().bits(), empty.layout().attrs().bits());
}

TEST(WireFormatTest, RejectsMalformedBuffers) {
  const Schema schema = MixedSchema();
  RowSet rows(RowLayout(schema.AllAttributes(), schema.num_attributes()));
  rows.Insert(Row({Value::String("x"), Value::Int(1), Value::Double(2.0),
                   Value::Bool(true)}));
  const std::string wire = EncodeColumnar(rows, schema);
  EXPECT_FALSE(DecodeColumnar("GARBAGE!").ok());
  // Truncations at every prefix length must fail cleanly, never crash.
  for (size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(DecodeColumnar(std::string_view(wire.data(), len)).ok())
        << "prefix " << len;
  }
  // Trailing bytes are rejected too.
  EXPECT_FALSE(DecodeColumnar(wire + "x").ok());
  // A flipped magic byte is rejected.
  std::string bad_magic = wire;
  bad_magic[0] = static_cast<char>(bad_magic[0] ^ 0x5a);
  EXPECT_FALSE(DecodeColumnar(bad_magic).ok());
}

constexpr const char* kScanSsdl = R"(
source R(k: string, v: int) {
  rule s1 -> k = $string;
  rule s2 -> v < $int;
  rule s3 -> v >= $int;
  export s1 : {k, v};
  export s2 : {k, v};
  export s3 : {k, v};
})";

class BatchSourceFixture : public ::testing::Test {
 protected:
  BatchSourceFixture()
      : description_(*ParseSsdl(kScanSsdl)),
        table_("R", description_.schema()),
        row_source_(&table_, &description_),
        batch_source_(&table_, &description_) {
    for (int i = 0; i < 100; ++i) {
      EXPECT_TRUE(table_
                      .AppendValues({Value::String(i % 2 ? "odd" : "even"),
                                     Value::Int(i % 10)})
                      .ok());
    }
    batch_source_.set_batch_width(16);
  }

  AttributeSet Attrs(const std::vector<std::string>& names) {
    return *description_.schema().MakeSet(names);
  }

  SourceDescription description_;
  Table table_;
  Source row_source_;
  Source batch_source_;
};

TEST_F(BatchSourceFixture, BatchExecuteMatchesRowExecute) {
  for (const char* text : {"k = \"odd\"", "v < 6", "v >= 9"}) {
    for (const std::vector<std::string>& attrs :
         {std::vector<std::string>{"k", "v"}, std::vector<std::string>{"k"},
          std::vector<std::string>{"v"}}) {
      const Result<RowSet> row_rows =
          row_source_.Execute(*Parse(text), Attrs(attrs));
      const Result<RowSet> batch_rows =
          batch_source_.Execute(*Parse(text), Attrs(attrs));
      ASSERT_TRUE(row_rows.ok());
      ASSERT_TRUE(batch_rows.ok());
      ExpectExactlyEqual(*batch_rows, *row_rows, text);
    }
  }
  // The batch source shipped its answers through the wire encoding; the row
  // source never did.
  EXPECT_GT(batch_source_.stats().wire_bytes, 0u);
  EXPECT_EQ(row_source_.stats().wire_bytes, 0u);
  EXPECT_EQ(batch_source_.stats().queries_answered,
            row_source_.stats().queries_answered);
}

TEST_F(BatchSourceFixture, BatchSourceStillRejectsUnsupported) {
  const Result<RowSet> rows =
      batch_source_.Execute(*Parse("k = \"odd\" and v < 5"), Attrs({"k"}));
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kUnsupported);
}

TEST_F(BatchSourceFixture, ExecutorBatchPlansMatchRowPlans) {
  std::vector<PlanPtr> plans;
  plans.push_back(PlanNode::MediatorSp(
      Parse("k = \"odd\""), Attrs({"v"}),
      PlanNode::SourceQuery(Parse("v < 8"), Attrs({"k", "v"}))));
  {
    std::vector<PlanPtr> children;
    children.push_back(PlanNode::SourceQuery(Parse("v < 6"), Attrs({"v"})));
    children.push_back(PlanNode::SourceQuery(Parse("v >= 4"), Attrs({"v"})));
    plans.push_back(PlanNode::UnionOf(std::move(children)));
  }
  {
    std::vector<PlanPtr> children;
    children.push_back(PlanNode::SourceQuery(Parse("v < 6"), Attrs({"v"})));
    children.push_back(PlanNode::SourceQuery(Parse("v >= 4"), Attrs({"v"})));
    plans.push_back(PlanNode::IntersectOf(std::move(children)));
  }
  {
    std::vector<PlanPtr> inner;
    inner.push_back(PlanNode::SourceQuery(Parse("v < 6"), Attrs({"k", "v"})));
    inner.push_back(PlanNode::SourceQuery(Parse("v >= 2"), Attrs({"k", "v"})));
    std::vector<PlanPtr> outer;
    outer.push_back(PlanNode::IntersectOf(std::move(inner)));
    outer.push_back(
        PlanNode::SourceQuery(Parse("k = \"even\""), Attrs({"k", "v"})));
    plans.push_back(PlanNode::UnionOf(std::move(outer)));
  }
  for (const PlanPtr& plan : plans) {
    Executor row_exec(&row_source_);
    ExecOptions batch_options;
    batch_options.batch_width = 16;
    Executor batch_exec(&batch_source_, nullptr, batch_options);
    const Result<RowSet> row_rows = row_exec.Execute(*plan);
    const Result<RowSet> batch_rows = batch_exec.Execute(*plan);
    ASSERT_TRUE(row_rows.ok()) << plan->ToShortString();
    ASSERT_TRUE(batch_rows.ok()) << plan->ToShortString();
    ExpectExactlyEqual(*batch_rows, *row_rows, plan->ToShortString());
  }
}

TEST(WrapperBatchTest, BatchWrapperMatchesRowWrapper) {
  const Result<SourceDescription> description = ParseSsdl(kScanSsdl);
  ASSERT_TRUE(description.ok());
  Table table("R", description->schema());
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(table
                    .AppendValues({Value::String(i % 3 ? "a" : "b"),
                                   Value::Int(i % 7)})
                    .ok());
  }
  Wrapper row_wrapper(*description, &table);
  Wrapper batch_wrapper(*description, &table);
  batch_wrapper.set_batch_width(8);
  for (const char* text :
       {"k = \"a\" and v < 5", "v < 3 or v >= 6", "k startswith \"b\""}) {
    const Result<RowSet> row_rows = row_wrapper.Query(text, {"k", "v"});
    const Result<RowSet> batch_rows = batch_wrapper.Query(text, {"k", "v"});
    ASSERT_EQ(row_rows.ok(), batch_rows.ok()) << text;
    if (!row_rows.ok()) continue;
    ExpectExactlyEqual(*batch_rows, *row_rows, text);
  }
  EXPECT_GT(batch_wrapper.stats().wire_bytes, 0u);
  EXPECT_EQ(row_wrapper.stats().wire_bytes, 0u);
}

constexpr const char* kMediatorSsdl = R"(
source cars(make: string, model: string, year: int,
            color: string, price: int) {
  cost 10.0 1.0;
  rule s1 -> make = $string and price < $int;
  rule s2 -> make = $string and color = $string;
  export s1 : {make, model, year, color};
  export s2 : {make, model, year};
}
)";

std::unique_ptr<Table> MediatorCars(const Schema& schema) {
  auto table = std::make_unique<Table>("cars", schema);
  const auto add = [&table](const char* make, const char* model, int64_t year,
                            const char* color, int64_t price) {
    EXPECT_TRUE(table
                    ->AppendValues({Value::String(make), Value::String(model),
                                    Value::Int(year), Value::String(color),
                                    Value::Int(price)})
                    .ok());
  };
  add("BMW", "318i", 1996, "red", 21000);
  add("BMW", "528i", 1997, "black", 38000);
  add("Toyota", "Corolla", 1997, "red", 13000);
  add("Toyota", "Camry", 1998, "blue", 19000);
  add("Honda", "Civic", 1998, "red", 14000);
  return table;
}

TEST(MediatorBatchTest, BatchMediatorMatchesRowMediator) {
  Mediator row_mediator;
  Mediator::Options batch_options;
  batch_options.batch_width = 64;
  Mediator batch_mediator(batch_options);
  for (Mediator* m : {&row_mediator, &batch_mediator}) {
    Result<SourceDescription> description = ParseSsdl(kMediatorSsdl);
    ASSERT_TRUE(description.ok());
    const Schema schema = description->schema();
    ASSERT_TRUE(m->RegisterSource(std::move(description).value(),
                                  MediatorCars(schema))
                    .ok());
  }
  for (const char* sql : {
           "SELECT make, model FROM cars WHERE make = \"BMW\" and price < "
           "30000",
           "SELECT make, model, year FROM cars WHERE (make = \"BMW\" and "
           "price < 30000) or (make = \"Toyota\" and color = \"red\")",
           "SELECT model FROM cars WHERE make = \"Toyota\" and price < 20000 "
           "and color = \"blue\"",
       }) {
    const Result<Mediator::QueryResult> row_result = row_mediator.Query(sql);
    const Result<Mediator::QueryResult> batch_result =
        batch_mediator.Query(sql);
    ASSERT_EQ(row_result.ok(), batch_result.ok()) << sql;
    if (!row_result.ok()) continue;
    ExpectExactlyEqual(batch_result->rows, row_result->rows, sql);
  }
  // The batch mediator's source reports wire traffic in the stats snapshot.
  const Mediator::Stats stats = batch_mediator.StatsSnapshot();
  ASSERT_EQ(stats.sources.size(), 1u);
  EXPECT_GT(stats.sources[0].source.wire_bytes, 0u);
}

TEST(MediatorBatchTest, BatchWidthSurvivesDescriptionReload) {
  Mediator::Options options;
  options.batch_width = 32;
  Mediator mediator(options);
  Result<SourceDescription> description = ParseSsdl(kMediatorSsdl);
  ASSERT_TRUE(description.ok());
  const Schema schema = description->schema();
  ASSERT_TRUE(mediator
                  .RegisterSource(std::move(description).value(),
                                  MediatorCars(schema))
                  .ok());
  Result<CatalogEntry*> entry = mediator.catalog()->Find("cars");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ((*entry)->source()->batch_width(), 32u);
  // Reload rebuilds the enforcement wrapper; the batch width must survive.
  Result<SourceDescription> reloaded = ParseSsdl(kMediatorSsdl);
  ASSERT_TRUE(reloaded.ok());
  ASSERT_TRUE(mediator.ReloadSource(std::move(reloaded).value()).ok());
  EXPECT_EQ((*entry)->source()->batch_width(), 32u);
  const Result<Mediator::QueryResult> result = mediator.Query(
      "SELECT make, model FROM cars WHERE make = \"BMW\" and price < 30000");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 1u);
}

}  // namespace
}  // namespace gencompact
