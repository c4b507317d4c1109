#include <gtest/gtest.h>

#include "storage/row.h"
#include "storage/row_set.h"
#include "storage/table.h"
#include "storage/table_stats.h"

namespace gencompact {
namespace {

Schema TestSchema() {
  return Schema({{"name", ValueType::kString},
                 {"score", ValueType::kInt},
                 {"ratio", ValueType::kDouble}});
}

TEST(RowLayoutTest, FullLayoutSlots) {
  const RowLayout layout(AttributeSet::AllOf(3), 3);
  EXPECT_EQ(layout.SlotOf(0), 0);
  EXPECT_EQ(layout.SlotOf(2), 2);
  EXPECT_EQ(layout.width(), 3u);
}

TEST(RowLayoutTest, ProjectedLayoutSlots) {
  AttributeSet attrs;
  attrs.Add(0);
  attrs.Add(2);
  const RowLayout layout(attrs, 3);
  EXPECT_EQ(layout.SlotOf(0), 0);
  EXPECT_EQ(layout.SlotOf(1), -1);
  EXPECT_EQ(layout.SlotOf(2), 1);
  EXPECT_FALSE(layout.HasAttribute(1));
}

TEST(RowLayoutTest, ProjectNarrows) {
  const RowLayout full(AttributeSet::AllOf(3), 3);
  AttributeSet narrow_attrs;
  narrow_attrs.Add(2);
  const RowLayout narrow(narrow_attrs, 3);
  const Row row({Value::String("a"), Value::Int(1), Value::Double(0.5)});
  const Row projected = full.Project(row, narrow);
  ASSERT_EQ(projected.size(), 1u);
  EXPECT_EQ(projected.value(0), Value::Double(0.5));
}

TEST(RowSetTest, Deduplicates) {
  RowSet set(RowLayout(AttributeSet::AllOf(1), 1));
  EXPECT_TRUE(set.Insert(Row({Value::Int(1)})));
  EXPECT_FALSE(set.Insert(Row({Value::Int(1)})));
  EXPECT_TRUE(set.Insert(Row({Value::Int(2)})));
  EXPECT_EQ(set.size(), 2u);
}

TEST(RowSetTest, UnionAndIntersect) {
  const RowLayout layout(AttributeSet::AllOf(1), 1);
  const auto make = [&layout](std::vector<int64_t> vs) {
    RowSet s(layout);
    for (const int64_t v : vs) s.Insert(Row({Value::Int(v)}));
    return s;
  };
  const auto values = [](const RowSet& s) {
    std::vector<int64_t> out;
    for (const Row& row : s.SortedRows()) {
      out.push_back(row.value(0).int_value());
    }
    return out;
  };
  // In-place union: rows move over, duplicates collapse.
  RowSet merged = make({1, 2});
  merged.MergeFrom(make({2, 3}));
  EXPECT_EQ(values(merged), (std::vector<int64_t>{1, 2, 3}));
  // In-place intersection keeps only the rows both sides hold.
  RowSet both = make({1, 2});
  both.IntersectWith(make({2, 3}));
  EXPECT_EQ(values(both), (std::vector<int64_t>{2}));
  // Merging into an empty set adopts the donor's rows.
  RowSet empty(layout);
  empty.MergeFrom(make({7, 8}));
  EXPECT_EQ(values(empty), (std::vector<int64_t>{7, 8}));
}

TEST(RowSetTest, ProjectToDeduplicates) {
  const RowLayout layout(AttributeSet::AllOf(2), 2);
  RowSet set(layout);
  set.Insert(Row({Value::Int(1), Value::String("x")}));
  set.Insert(Row({Value::Int(1), Value::String("y")}));
  AttributeSet first;
  first.Add(0);
  EXPECT_EQ(set.ProjectTo(first, 2).size(), 1u);
}

TEST(RowSetTest, SortedRowsIsDeterministic) {
  RowSet set(RowLayout(AttributeSet::AllOf(1), 1));
  set.Insert(Row({Value::Int(3)}));
  set.Insert(Row({Value::Int(1)}));
  set.Insert(Row({Value::Int(2)}));
  const std::vector<Row> sorted = set.SortedRows();
  EXPECT_EQ(sorted[0].value(0), Value::Int(1));
  EXPECT_EQ(sorted[2].value(0), Value::Int(3));
}

TEST(TableTest, AppendValidatesWidth) {
  Table table("t", TestSchema());
  EXPECT_FALSE(table.AppendValues({Value::String("x")}).ok());
  EXPECT_TRUE(
      table.AppendValues({Value::String("x"), Value::Int(1), Value::Double(0.5)})
          .ok());
  EXPECT_EQ(table.num_rows(), 1u);
}

TEST(TableTest, AppendValidatesTypes) {
  Table table("t", TestSchema());
  EXPECT_FALSE(
      table.AppendValues({Value::Int(3), Value::Int(1), Value::Double(0.5)})
          .ok());
  // Nulls pass for any declared type; ints pass for double attributes.
  EXPECT_TRUE(
      table.AppendValues({Value::Null(), Value::Int(1), Value::Int(2)}).ok());
}

TEST(TableStatsTest, CountsAndDistinct) {
  Table table("t", TestSchema());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(table
                    .AppendValues({Value::String(i % 2 ? "a" : "b"),
                                   Value::Int(i), Value::Double(i * 0.5)})
                    .ok());
  }
  const TableStats stats = TableStats::Compute(table);
  EXPECT_EQ(stats.num_rows(), 10u);
  EXPECT_EQ(stats.attribute(0).num_distinct, 2u);
  EXPECT_EQ(stats.attribute(1).num_distinct, 10u);
  EXPECT_TRUE(stats.attribute(1).has_range);
  EXPECT_EQ(stats.attribute(1).min_value, 0.0);
  EXPECT_EQ(stats.attribute(1).max_value, 9.0);
}

TEST(TableStatsTest, CommonValuesTrackExactCounts) {
  Table table("t", Schema({{"k", ValueType::kString}}));
  for (int i = 0; i < 7; ++i) ASSERT_TRUE(table.AppendValues({Value::String("hot")}).ok());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(table.AppendValues({Value::String("cold")}).ok());
  const TableStats stats = TableStats::Compute(table);
  EXPECT_EQ(stats.CommonValueCount(0, Value::String("hot")), 7u);
  EXPECT_EQ(stats.CommonValueCount(0, Value::String("cold")), 3u);
  EXPECT_FALSE(stats.CommonValueCount(0, Value::String("warm")).has_value());
}

TEST(TableStatsTest, NullsExcludedFromStats) {
  Table table("t", Schema({{"v", ValueType::kInt}}));
  ASSERT_TRUE(table.AppendValues({Value::Null()}).ok());
  ASSERT_TRUE(table.AppendValues({Value::Int(5)}).ok());
  const TableStats stats = TableStats::Compute(table);
  EXPECT_EQ(stats.attribute(0).num_non_null, 1u);
  EXPECT_EQ(stats.attribute(0).num_distinct, 1u);
}

}  // namespace
}  // namespace gencompact
