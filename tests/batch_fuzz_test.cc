// Seeded ground-truth fuzzer for the scan data plane: random schemas ×
// random tables (spiked with nulls, numeric cross-typing, empty strings
// and duplicates) × random and edge-case conditions × random,
// single-column (duplicate-heavy) and full projections, asserting that
// ScanTable and FilterRows return *exactly* the rows of an oracle written
// here: a per-row EvalCondition + Project + Insert walk over the table's
// rows (same tuples, same per-cell Value types — the first occurrence's,
// where Int(2) and Double(2.0) collapse — and the same RowSet order). The
// scan cases run again after more rows are appended to the built mirror.
//
// The base seed comes from GENCOMPACT_TEST_SEED (default 439) so CI can run
// a seed matrix; each parameterized case derives independent sub-seeds.
// (The test names predate the single scan path, when each case also swept
// batch widths; the CI seed matrix selects them by name.)
//
// BatchConcurrencyTest at the bottom drives multi-threaded mediators from
// concurrent clients — the TSan leg's coverage of first-use column builds
// (Table::columns) racing on the scan-offload pool, and of the in-place
// set combines.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "exec/scan.h"
#include "expr/condition_eval.h"
#include "mediator/mediator.h"
#include "ssdl/ssdl_parser.h"
#include "workload/datasets.h"
#include "workload/random_condition.h"

namespace gencompact {
namespace {

uint64_t BaseSeed() {
  const char* env = std::getenv("GENCOMPACT_TEST_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 439;
}

// Type-exact rendering of one row: ToString alone cannot tell Int(2) from
// Double(2.0) — both print "2" — so each cell renders as type:text.
std::string RowSignature(const Row& row) {
  std::string sig;
  for (const Value& v : row.values()) {
    sig += ValueTypeName(v.type());
    sig += ':';
    sig += v.ToString();
    sig += '|';
  }
  return sig;
}

// Type-exact signature of a row set, in sorted order.
std::vector<std::string> Signature(const RowSet& rows) {
  std::vector<std::string> out;
  for (const Row& row : rows.SortedRows()) out.push_back(RowSignature(row));
  return out;
}

// Type-exact signature in the set's own iteration order: equal only if
// the same rows went in, in the same order.
std::vector<std::string> OrderedSignature(const RowSet& rows) {
  std::vector<std::string> out;
  for (const Row& row : rows.rows()) out.push_back(RowSignature(row));
  return out;
}

// The ground truth: filter `rows` (laid out by `layout`) row by row with
// EvalCondition, project each match to `out_attrs`, insert in row order.
Result<RowSet> OracleFilter(const std::vector<Row>& rows,
                            const RowLayout& layout, const ConditionNode& cond,
                            const AttributeSet& out_attrs,
                            const Schema& schema) {
  const RowLayout out_layout(out_attrs, schema.num_attributes());
  RowSet result(out_layout);
  for (const Row& row : rows) {
    GC_ASSIGN_OR_RETURN(const bool matches,
                        EvalCondition(cond, row, layout, schema));
    if (matches) result.Insert(layout.Project(row, out_layout));
  }
  return result;
}

// A random schema mixing every attribute kind (2–6 attributes, at least
// one numeric so cross-typed spikes always have a target).
Schema RandomSchema(Rng* rng) {
  const ValueType kinds[] = {ValueType::kString, ValueType::kInt,
                             ValueType::kDouble, ValueType::kBool};
  std::vector<AttributeDef> attrs;
  const size_t n = 2 + rng->NextIndex(5);
  for (size_t i = 0; i < n; ++i) {
    attrs.push_back({"a" + std::to_string(i), kinds[rng->NextIndex(4)]});
  }
  attrs.push_back({"num", rng->NextBool() ? ValueType::kInt
                                          : ValueType::kDouble});
  return Schema(attrs);
}

// Spikes MakeRandomTable's output with the storage shapes the generator
// never produces: nulls anywhere, Int cells in double columns (and vice
// versa), Int(2) next to Double(2.0), empty strings, and exact duplicates —
// the corners where the mirror could plausibly crack (null codes, per-cell
// tags, dictionary codes, dedup hashing).
void SpikeTable(Table* table, Rng* rng, bool double_first = false) {
  const Schema& schema = table->schema();
  // One row of Int(2) / "" / false cells and one of Double(2.0) / "" /
  // true cells (in the order `double_first` picks): Compare-equal numerics
  // with distinct types, of which a projection keeps the first, and the
  // empty string as a dictionary entry.
  for (const bool as_double : {double_first, !double_first}) {
    std::vector<Value> values;
    for (const AttributeDef& attr : schema.attributes()) {
      switch (attr.type) {
        case ValueType::kString:
          values.push_back(Value::String(""));
          break;
        case ValueType::kInt:
        case ValueType::kDouble:
          values.push_back(as_double ? Value::Double(2.0) : Value::Int(2));
          break;
        case ValueType::kBool:
          values.push_back(Value::Bool(as_double));
          break;
        case ValueType::kNull:
          values.push_back(Value::Null());
          break;
      }
    }
    EXPECT_TRUE(table->AppendValues(std::move(values)).ok());
  }
  const size_t spikes = 20 + rng->NextIndex(20);
  for (size_t s = 0; s < spikes; ++s) {
    if (!table->rows().empty() && rng->NextBool(0.3)) {
      // Duplicate an existing row verbatim.
      Row copy = table->rows()[rng->NextIndex(table->num_rows())];
      EXPECT_TRUE(table->Append(std::move(copy)).ok());
      continue;
    }
    std::vector<Value> values;
    for (const AttributeDef& attr : schema.attributes()) {
      if (rng->NextBool(0.25)) {
        values.push_back(Value::Null());
        continue;
      }
      switch (attr.type) {
        case ValueType::kString:
          values.push_back(
              Value::String("spike" + std::to_string(rng->NextIndex(4))));
          break;
        case ValueType::kInt:
          // Half the time a Double in the int column (cross-typing).
          values.push_back(rng->NextBool()
                               ? Value::Int(rng->NextInt(-5, 5))
                               : Value::Double(
                                     static_cast<double>(rng->NextInt(-5, 5)) +
                                     (rng->NextBool() ? 0.5 : 0.0)));
          break;
        case ValueType::kDouble:
          values.push_back(rng->NextBool()
                               ? Value::Double(rng->NextDouble() * 10.0 - 5.0)
                               : Value::Int(rng->NextInt(-5, 5)));
          break;
        case ValueType::kBool:
          values.push_back(Value::Bool(rng->NextBool()));
          break;
        case ValueType::kNull:
          values.push_back(Value::Null());
          break;
      }
    }
    EXPECT_TRUE(table->AppendValues(std::move(values)).ok());
  }
}

AttributeSet RandomProjection(const Schema& schema, Rng* rng) {
  AttributeSet attrs;
  const size_t n = schema.num_attributes();
  for (size_t i = 0; i < n; ++i) {
    if (rng->NextBool(0.5)) attrs.Add(static_cast<int>(i));
  }
  if (attrs.empty()) attrs.Add(static_cast<int>(rng->NextIndex(n)));
  return attrs;
}

// Single atoms at the mirror's edges, per attribute: string columns under
// every CompareOp against a stored value, the empty string, and a constant
// absent from the column's dictionary, plus NULL constants; numeric
// columns against Int(2), Double(2.0) and Double(2.5) under every ordering
// op; bool columns under = and !=.
std::vector<ConditionPtr> EdgeConditions(const Table& table, Rng* rng) {
  const CompareOp kAllOps[] = {CompareOp::kEq,       CompareOp::kNe,
                               CompareOp::kLt,       CompareOp::kLe,
                               CompareOp::kGt,       CompareOp::kGe,
                               CompareOp::kContains, CompareOp::kStartsWith};
  const CompareOp kOrderOps[] = {CompareOp::kEq, CompareOp::kNe,
                                 CompareOp::kLt, CompareOp::kLe,
                                 CompareOp::kGt, CompareOp::kGe};
  std::vector<ConditionPtr> conds;
  const Schema& schema = table.schema();
  for (int i = 0; i < static_cast<int>(schema.num_attributes()); ++i) {
    const AttributeDef& attr = schema.attribute(i);
    switch (attr.type) {
      case ValueType::kString: {
        Value stored = Value::String("spike0");
        for (int tries = 0; tries < 8; ++tries) {
          const Value& v = table.rows()[rng->NextIndex(table.num_rows())]
                               .value(static_cast<size_t>(i));
          if (!v.is_null() && !v.string_value().empty()) {
            stored = v;
            break;
          }
        }
        for (const CompareOp op : kAllOps) {
          for (const Value& constant :
               {stored, Value::String(""), Value::String("zz-absent")}) {
            conds.push_back(ConditionNode::Atom(attr.name, op, constant));
          }
        }
        for (const CompareOp op : {CompareOp::kEq, CompareOp::kNe}) {
          conds.push_back(ConditionNode::Atom(attr.name, op, Value::Null()));
        }
        break;
      }
      case ValueType::kInt:
      case ValueType::kDouble:
        for (const CompareOp op : kOrderOps) {
          for (const Value& constant :
               {Value::Int(2), Value::Double(2.0), Value::Double(2.5)}) {
            conds.push_back(ConditionNode::Atom(attr.name, op, constant));
          }
        }
        break;
      case ValueType::kBool:
        for (const CompareOp op : {CompareOp::kEq, CompareOp::kNe}) {
          conds.push_back(
              ConditionNode::Atom(attr.name, op, Value::Bool(true)));
        }
        break;
      case ValueType::kNull:
        break;
    }
  }
  return conds;
}

// Same-column string `=` disjunctions — a form's list field, which the
// batch path compiles to one dictionary-code membership kernel — at the
// shapes that could crack it: 2–4 stored constants, a duplicate constant,
// constants no cell holds (one of them, and all of them), the empty
// string, and a NULL or a non-string constant mixed in, or a second column
// (those must take the generic ∨ path). Each list appears as the root, as
// the first child of an ∧ (the dense first pass), as a later ∧ child, and
// nested under an ∨ of ∧s.
std::vector<ConditionPtr> ListConditions(const Table& table, Rng* rng) {
  const Schema& schema = table.schema();
  std::vector<ConditionPtr> conds;
  for (int i = 0; i < static_cast<int>(schema.num_attributes()); ++i) {
    const AttributeDef& attr = schema.attribute(i);
    if (attr.type != ValueType::kString) continue;
    std::vector<Value> stored;
    for (int tries = 0; tries < 32 && stored.size() < 4; ++tries) {
      const Value& v = table.rows()[rng->NextIndex(table.num_rows())]
                           .value(static_cast<size_t>(i));
      if (v.is_null()) continue;
      if (std::find(stored.begin(), stored.end(), v) == stored.end()) {
        stored.push_back(v);
      }
    }
    if (stored.empty()) stored.push_back(Value::String("spike0"));
    const Value& first = stored.front();
    const Value& last = stored.back();
    const Value absent = Value::String("zz-absent");

    const size_t k = std::min(stored.size(), 2 + rng->NextIndex(3));
    std::vector<Value> some(stored.begin(),
                            stored.begin() + static_cast<std::ptrdiff_t>(k));
    if (some.size() < 2) some.push_back(Value::String("spike1"));
    const std::vector<std::vector<Value>> lists = {
        some,
        {first, last, first},
        {first, absent},
        {absent, Value::String("zz-also-absent")},
        {Value::String(""), last},
        {first, Value::Null()},
        {Value::Int(2), last},
    };
    const auto num_atom = [&] {
      return ConditionNode::Atom(
          "num", rng->NextBool() ? CompareOp::kLe : CompareOp::kGt,
          Value::Int(rng->NextInt(-5, 30)));
    };
    // String `=` atoms on two columns are no list: the generic ∨.
    std::vector<ConditionPtr> two_columns = {
        ConditionNode::Atom(attr.name, CompareOp::kEq, first)};
    for (int j = 0; j < static_cast<int>(schema.num_attributes()); ++j) {
      if (j == i || schema.attribute(j).type != ValueType::kString) continue;
      const Value& other = table.rows()[rng->NextIndex(table.num_rows())]
                               .value(static_cast<size_t>(j));
      two_columns.push_back(ConditionNode::Atom(
          schema.attribute(j).name, CompareOp::kEq,
          other.is_null() ? Value::String("spike2") : other));
      break;
    }
    if (two_columns.size() > 1) {
      conds.push_back(ConditionNode::Or(std::move(two_columns)));
    }
    for (const std::vector<Value>& values : lists) {
      std::vector<ConditionPtr> atoms;
      for (const Value& v : values) {
        atoms.push_back(ConditionNode::Atom(attr.name, CompareOp::kEq, v));
      }
      const ConditionPtr list = ConditionNode::Or(std::move(atoms));
      conds.push_back(list);
      conds.push_back(ConditionNode::And({list, num_atom()}));
      conds.push_back(ConditionNode::And({num_atom(), list}));
      conds.push_back(ConditionNode::Or(
          {ConditionNode::And({num_atom(), list}), num_atom()}));
    }
  }
  return conds;
}

class BatchParityTest : public ::testing::TestWithParam<int> {
 protected:
  uint64_t CaseSeed() const {
    return BaseSeed() * 1000003ull +
           static_cast<uint64_t>(GetParam()) * 6700417ull;
  }
};

TEST_P(BatchParityTest, ScanTableMatchesRowPathAtEveryWidth) {
  Rng rng(CaseSeed() + 1);
  Rng list_rng(CaseSeed() + 3);
  for (int trial = 0; trial < 3; ++trial) {
    const Schema schema = RandomSchema(&rng);
    std::unique_ptr<Table> table =
        MakeRandomTable("fuzz", schema, /*rows=*/150 + rng.NextIndex(100),
                        /*string_pool=*/6, /*value_range=*/30, &rng);
    SpikeTable(table.get(), &rng, /*double_first=*/trial == 1);
    std::vector<AttributeDomain> domains =
        ExtractDomains(*table, /*max_samples=*/6, &rng);

    std::vector<ConditionPtr> conds = EdgeConditions(*table, &rng);
    conds.push_back(ConditionNode::True());  // all-pass batches
    conds.push_back(ConditionNode::Atom(    // all-filtered batches
        schema.attribute(0).name, CompareOp::kEq, Value::Null()));
    for (int c = 0; c < 4; ++c) {
      RandomConditionOptions options;
      options.num_atoms = 1 + rng.NextIndex(5);
      conds.push_back(RandomCondition(domains, options, &rng));
    }
    const size_t num_random = conds.size();
    for (ConditionPtr& cond : ListConditions(*table, &list_rng)) {
      conds.push_back(std::move(cond));
    }
    // Every condition under a random projection, plus duplicate-heavy
    // single-column projections (`num` holds the Int(2)/Double(2.0) twins
    // and nulls) and the full attribute set.
    std::vector<std::pair<ConditionPtr, AttributeSet>> cases;
    for (size_t c = 0; c < conds.size(); ++c) {
      cases.emplace_back(
          conds[c],
          RandomProjection(schema, c < num_random ? &rng : &list_rng));
    }
    const int num = *schema.IndexOf("num");
    for (const ConditionPtr& cond :
         {ConditionNode::True(), conds[rng.NextIndex(conds.size())]}) {
      for (int i = 0; i < static_cast<int>(schema.num_attributes()); ++i) {
        cases.emplace_back(cond, AttributeSet::FromBits(uint64_t{1} << i));
      }
      cases.emplace_back(cond, schema.AllAttributes());
    }

    const auto check_all = [&](const char* phase) {
      for (const auto& [cond, attrs] : cases) {
        const Result<RowSet> oracle = OracleFilter(
            table->rows(), table->FullLayout(), *cond, attrs, schema);
        ASSERT_TRUE(oracle.ok()) << cond->ToString();
        const Result<RowSet> scanned = ScanTable(*table, *cond, attrs);
        ASSERT_TRUE(scanned.ok()) << cond->ToString();
        ASSERT_EQ(OrderedSignature(*scanned), OrderedSignature(*oracle))
            << phase << ", cond: " << cond->ToString() << " attrs "
            << attrs.ToString(schema) << " seed " << CaseSeed();
      }
    };
    check_all("first scans");
    // The Compare-equal `num` cells collapse to the first occurrence's.
    const Value* first_two = nullptr;
    for (const Row& row : table->rows()) {
      const Value& v = row.value(static_cast<size_t>(num));
      if (!v.is_null() && v == Value::Int(2)) {
        first_two = &v;
        break;
      }
    }
    ASSERT_NE(first_two, nullptr);
    const Result<RowSet> twos = ScanTable(
        *table, *ConditionNode::Atom("num", CompareOp::kEq, Value::Int(2)),
        AttributeSet::FromBits(uint64_t{1} << num));
    ASSERT_TRUE(twos.ok());
    ASSERT_EQ(twos->size(), 1u);
    EXPECT_EQ(twos->rows().begin()->value(0).type(), first_two->type());

    // Rows appended after the condition and projection columns were
    // built: new dictionary values, nulls, duplicates of old rows and the
    // twins in the other order, all of which the next scans must see.
    SpikeTable(table.get(), &rng, /*double_first=*/trial != 1);
    check_all("after appends");
  }
}

TEST_P(BatchParityTest, FilterRowsMatchesRowPathAtEveryWidth) {
  Rng rng(CaseSeed() + 2);
  Rng list_rng(CaseSeed() + 4);
  for (int trial = 0; trial < 3; ++trial) {
    const Schema schema = RandomSchema(&rng);
    std::unique_ptr<Table> table =
        MakeRandomTable("fuzz", schema, /*rows=*/120, /*string_pool=*/5,
                        /*value_range=*/25, &rng);
    SpikeTable(table.get(), &rng);
    std::vector<AttributeDomain> domains =
        ExtractDomains(*table, /*max_samples=*/5, &rng);

    // Intermediate input: a random projection of the whole table.
    const AttributeSet in_attrs = RandomProjection(schema, &rng);
    const Result<RowSet> input = OracleFilter(
        table->rows(), table->FullLayout(), *ConditionNode::True(), in_attrs,
        schema);
    ASSERT_TRUE(input.ok());
    const std::vector<Row> input_rows(input->rows().begin(),
                                      input->rows().end());

    const std::vector<ConditionPtr> lists = ListConditions(*table, &list_rng);
    for (size_t c = 0; c < 4 + lists.size(); ++c) {
      // The condition may reference attributes outside the input layout —
      // then FilterRows must fail at compile time with NotFound (the
      // oracle, evaluating lazily, would fail only on a row that reaches
      // the missing attribute).
      Rng* const cond_rng = c < 4 ? &rng : &list_rng;
      ConditionPtr cond;
      if (c < 4) {
        RandomConditionOptions options;
        options.num_atoms = 1 + rng.NextIndex(4);
        cond = RandomCondition(domains, options, &rng);
      } else {
        cond = lists[c - 4];
      }
      const AttributeSet out = [&] {
        AttributeSet set;
        for (const int i : in_attrs.Indices()) {
          if (cond_rng->NextBool(0.6)) set.Add(i);
        }
        if (set.empty()) set = in_attrs;
        return set;
      }();
      const Result<AttributeSet> mentioned = cond->Attributes(schema);
      ASSERT_TRUE(mentioned.ok());
      const bool in_layout = mentioned->IsSubsetOf(in_attrs);
      const Result<RowSet> oracle =
          OracleFilter(input_rows, input->layout(), *cond, out, schema);
      ASSERT_TRUE(oracle.ok() || !in_layout) << cond->ToString();
      const Result<RowSet> filtered = FilterRows(*input, *cond, out, schema);
      ASSERT_EQ(filtered.ok(), in_layout) << cond->ToString();
      if (!in_layout) {
        EXPECT_EQ(filtered.status().code(), StatusCode::kNotFound);
        continue;
      }
      ASSERT_EQ(OrderedSignature(*filtered), OrderedSignature(*oracle))
          << "cond: " << cond->ToString() << " seed " << CaseSeed();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchParityTest, ::testing::Range(0, 20));

// ---------------------------------------------------------------------------
// TSan coverage: concurrent clients against one batched mediator.

constexpr const char* kCarsSsdl = R"(
source cars(make: string, model: string, year: int,
            color: string, price: int) {
  cost 10.0 1.0;
  rule s1 -> make = $string and price < $int;
  rule s2 -> make = $string and color = $string;
  export s1 : {make, model, year, color};
  export s2 : {make, model, year};
}
)";

std::unique_ptr<Table> ConcurrencyCars() {
  Result<SourceDescription> description = ParseSsdl(kCarsSsdl);
  EXPECT_TRUE(description.ok());
  auto table = std::make_unique<Table>("cars", description->schema());
  const char* makes[] = {"BMW", "Toyota", "Honda"};
  const char* colors[] = {"red", "black", "blue"};
  for (int i = 0; i < 300; ++i) {
    EXPECT_TRUE(table
                    ->AppendValues({Value::String(makes[i % 3]),
                                    Value::String("m" + std::to_string(i % 17)),
                                    Value::Int(1990 + i % 10),
                                    Value::String(colors[i % 3]),
                                    Value::Int(10000 + (i % 40) * 1000)})
                    .ok());
  }
  return table;
}

// Runs kClients threads of kRounds queries each against `mediator`,
// checking every answer against `want` (type-exact). Returns one error
// string per client, empty when all its answers matched.
std::vector<std::string> RunConcurrentClients(
    Mediator* mediator, const std::vector<std::string>& queries,
    const std::vector<std::vector<std::string>>& want) {
  constexpr int kClients = 4;
  constexpr int kRounds = 8;
  std::vector<std::string> errors(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int round = 0; round < kRounds; ++round) {
        const size_t q = static_cast<size_t>(c + round) % queries.size();
        const Result<Mediator::QueryResult> result =
            mediator->Query(queries[q]);
        if (!result.ok()) {
          errors[c] = result.status().ToString();
          return;
        }
        if (Signature(result->rows) != want[q]) {
          errors[c] = "answer mismatch on " + queries[q];
          return;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  return errors;
}

// Type-exact answers of `queries` from a fresh single-client mediator with
// default options.
std::vector<std::vector<std::string>> ReferenceAnswers(
    const std::vector<std::string>& queries) {
  Mediator reference;
  Result<SourceDescription> description = ParseSsdl(kCarsSsdl);
  EXPECT_TRUE(description.ok());
  EXPECT_TRUE(reference
                  .RegisterSource(std::move(description).value(),
                                  ConcurrencyCars())
                  .ok());
  std::vector<std::vector<std::string>> want;
  for (const std::string& sql : queries) {
    const Result<Mediator::QueryResult> result = reference.Query(sql);
    EXPECT_TRUE(result.ok()) << sql;
    want.push_back(result.ok() ? Signature(result->rows)
                               : std::vector<std::string>{});
  }
  return want;
}

TEST(BatchConcurrencyTest, ConcurrentClientsOnBatchedMediator) {
  // Union-shaped queries: parallel children race on the shared column
  // builds and the in-place set combines.
  const std::vector<std::string> queries = {
      "SELECT make, model FROM cars WHERE (make = \"BMW\" and price < 30000) "
      "or (make = \"Toyota\" and color = \"red\")",
      "SELECT make, model, year FROM cars WHERE (make = \"Honda\" and price "
      "< 25000) or (make = \"BMW\" and color = \"black\")",
      "SELECT model FROM cars WHERE make = \"Toyota\" and price < 40000",
  };
  const std::vector<std::vector<std::string>> want = ReferenceAnswers(queries);

  Mediator::Options options;
  options.num_threads = 4;
  Mediator mediator(options);
  {
    Result<SourceDescription> description = ParseSsdl(kCarsSsdl);
    ASSERT_TRUE(description.ok());
    ASSERT_TRUE(mediator
                    .RegisterSource(std::move(description).value(),
                                    ConcurrencyCars())
                    .ok());
  }
  const std::vector<std::string> errors =
      RunConcurrentClients(&mediator, queries, want);
  for (size_t c = 0; c < errors.size(); ++c) {
    EXPECT_TRUE(errors[c].empty()) << "client " << c << ": " << errors[c];
  }
}

TEST(BatchConcurrencyTest, ConcurrentClientsBuildColumnsOnFirstUse) {
  // A scan-offload pool over a freshly registered table: no column is
  // built yet, so the first scans race to build their condition and
  // projection columns (Table::columns) while other scans already read
  // columns another thread just published.
  const std::vector<std::string> queries = {
      "SELECT make, model FROM cars WHERE (make = \"BMW\" and price < 30000) "
      "or (make = \"Toyota\" and color = \"red\")",
      "SELECT model, year FROM cars WHERE make = \"Honda\" and color = "
      "\"blue\"",
      "SELECT model FROM cars WHERE make = \"Toyota\" and price < 40000",
      "SELECT make, year FROM cars WHERE (make = \"Honda\" and price < 25000) "
      "or (make = \"BMW\" and color = \"black\")",
  };
  const std::vector<std::vector<std::string>> want = ReferenceAnswers(queries);

  Mediator::Options options;
  options.num_threads = 4;
  Mediator mediator(options);
  {
    Result<SourceDescription> description = ParseSsdl(kCarsSsdl);
    ASSERT_TRUE(description.ok());
    ASSERT_TRUE(mediator
                    .RegisterSource(std::move(description).value(),
                                    ConcurrencyCars())
                    .ok());
  }
  const std::vector<std::string> errors =
      RunConcurrentClients(&mediator, queries, want);
  for (size_t c = 0; c < errors.size(); ++c) {
    EXPECT_TRUE(errors[c].empty()) << "client " << c << ": " << errors[c];
  }
  Result<CatalogEntry*> entry = mediator.catalog()->Find("cars");
  ASSERT_TRUE(entry.ok());
  // Only the attributes the source queries filter on or ship were
  // mirrored.
  const Schema& schema = (*entry)->table().schema();
  EXPECT_EQ((*entry)->table().built_columns(),
            *schema.MakeSet({"make", "model", "year", "color", "price"}));
}

}  // namespace
}  // namespace gencompact
