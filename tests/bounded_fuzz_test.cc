// Seeded bounded-source differential fuzzer: random result bounds (bound ×
// page × accesses) × random conditions × random tables, against an
// unbounded twin of the same table.
//
// Invariants (the tentpole's acceptance bar):
//  - an answer the mediator reports COMPLETE is bit-identical to the
//    unbounded answer (paging loops and refinement recover exactness);
//  - an answer that is smaller than the unbounded one is NEVER silent: it
//    carries a truncation marker naming the bounded source;
//  - every partial answer is a strict subset of the true answer — paging
//    never duplicates, drops, or invents rows, even with mid-page faults
//    retried at random offsets.
//
// The base seed comes from GENCOMPACT_TEST_SEED (default 439) so CI can run
// a seed matrix.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "exec/fault_policy.h"
#include "mediator/mediator.h"
#include "ssdl/ssdl_parser.h"

namespace gencompact {
namespace {

uint64_t BaseSeed() {
  const char* env = std::getenv("GENCOMPACT_TEST_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 439;
}

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

constexpr const char* kFuzzSsdlTemplate = R"(
source R(k: string, v: int) {
  cost 10.0 1.0;
  %s
  rule s1 -> k = $string;
  rule s2 -> v < $int;
  rule s3 -> v >= $int;
  rule s4 -> v < $int or v >= $int;
  rule s5 -> k = $string or k = $string;
  rule s6 -> v >= $int and v < $int;
  export s1 : {k, v};
  export s2 : {k, v};
  export s3 : {k, v};
  export s4 : {k, v};
  export s5 : {k, v};
  export s6 : {k, v};
})";

/// One random condition from the parametric families the fuzz grammar
/// supports end to end (constants drawn from the data domain [0, 20),
/// string keys from the 4-value pool the table uses).
std::string RandomConditionText(Rng* rng) {
  const auto c = [&] { return std::to_string(rng->NextIndex(20)); };
  const auto s = [&] {
    return "\"s" + std::to_string(rng->NextIndex(4)) + "\"";
  };
  switch (rng->NextIndex(6)) {
    case 0:
      return "v < " + c();
    case 1:
      return "v >= " + c();
    case 2:
      return "k = " + s();
    case 3: {
      // lo < hi, so the disjunction never simplifies to TRUE (an
      // unconditioned download the fuzz grammar deliberately refuses).
      const uint64_t lo = rng->NextIndex(10);
      const uint64_t hi = lo + 1 + rng->NextIndex(10);
      return "v < " + std::to_string(lo) + " or v >= " + std::to_string(hi);
    }
    case 4:
      return "k = " + s() + " or k = " + s();
    default: {
      const uint64_t lo = rng->NextIndex(10);
      const uint64_t hi = lo + 1 + rng->NextIndex(10);
      return "v >= " + std::to_string(lo) + " and v < " + std::to_string(hi);
    }
  }
}

struct FuzzMediator {
  std::unique_ptr<Mediator> mediator;
  Source* source = nullptr;
};

FuzzMediator MakeFuzzMediator(const std::string& bound_line, size_t num_rows,
                              uint64_t table_seed, Clock* clock) {
  char ssdl[1024];
  std::snprintf(ssdl, sizeof(ssdl), kFuzzSsdlTemplate, bound_line.c_str());
  Result<SourceDescription> description = ParseSsdl(ssdl);
  EXPECT_TRUE(description.ok()) << description.status().ToString();

  Rng rng(table_seed);
  auto table = std::make_unique<Table>("R", description->schema());
  for (size_t i = 0; i < num_rows; ++i) {
    EXPECT_TRUE(
        table
            ->AppendValues(
                {Value::String("s" + std::to_string(rng.NextIndex(4))),
                 Value::Int(static_cast<int64_t>(rng.NextIndex(20)))})
            .ok());
  }

  Mediator::Options options;
  options.partial_results = true;
  options.retry.max_attempts = 4;
  options.retry.backoff.base = std::chrono::microseconds(1);
  options.retry.backoff.cap = std::chrono::microseconds(2);
  options.clock = clock;
  FuzzMediator out;
  out.mediator = std::make_unique<Mediator>(options);
  EXPECT_TRUE(out.mediator
                  ->RegisterSource(std::move(description).value(),
                                   std::move(table))
                  .ok());
  Result<CatalogEntry*> entry = out.mediator->catalog()->Find("R");
  EXPECT_TRUE(entry.ok());
  out.source = (*entry)->source();
  return out;
}

TEST(BoundedFuzzTest, NoAnswerIsEverSilentlyTruncated) {
  const uint64_t base = BaseSeed();
  FakeClock clock;
  size_t exact = 0, partial = 0;
  constexpr size_t kTrials = 60;
  for (size_t trial = 0; trial < kTrials; ++trial) {
    Rng rng(base * 7919 + trial * 104729);

    // Random bound configuration: 1..12 rows per response, paging in
    // random page sizes about half the time, an access cap now and then.
    const uint64_t bound = 1 + rng.NextIndex(12);
    const bool paging = rng.NextBool();
    std::string bound_line = "bound " + std::to_string(bound);
    if (paging) {
      bound_line += " page " + std::to_string(1 + rng.NextIndex(bound));
    }
    if (rng.NextBool(0.3)) {
      bound_line += " accesses " + std::to_string(1 + rng.NextIndex(6));
    }
    bound_line += ";";

    const size_t num_rows = 20 + rng.NextIndex(41);
    const uint64_t table_seed = rng.Next();
    FuzzMediator bounded =
        MakeFuzzMediator(bound_line, num_rows, table_seed, &clock);
    FuzzMediator unbounded =
        MakeFuzzMediator("", num_rows, table_seed, &clock);

    // Sometimes script mid-page transients: the per-page retry discipline
    // must absorb them without duplicating or dropping rows.
    if (paging && rng.NextBool(0.4)) {
      FaultPolicy policy;
      policy.page_faults.push_back(
          {/*offset=*/rng.NextIndex(num_rows), /*fail_count=*/
           1 + rng.NextIndex(2)});
      bounded.source->set_fault_policy(policy);
    }

    const std::string cond = RandomConditionText(&rng);
    const std::string sql = "SELECT k, v FROM R WHERE " + cond;
    const Result<Mediator::QueryResult> a = bounded.mediator->Query(sql);
    const Result<Mediator::QueryResult> b = unbounded.mediator->Query(sql);
    ASSERT_TRUE(b.ok()) << sql << ": " << b.status().ToString();
    ASSERT_TRUE(a.ok()) << sql << " [" << bound_line
                        << "]: " << a.status().ToString();

    // Subset always: bounded answers never invent rows.
    for (const Row& row : a->rows.rows()) {
      ASSERT_TRUE(b->rows.Contains(row))
          << sql << " [" << bound_line << "]: invented row";
    }

    if (a->completeness.complete) {
      // Exactness promise: complete answers are bit-identical.
      ASSERT_EQ(Signature(a->rows), Signature(b->rows))
          << sql << " [" << bound_line << "]";
      ASSERT_TRUE(a->completeness.truncated_sources.empty());
      ++exact;
    } else {
      // ZERO silent truncation: anything short of the true answer names
      // the bounded source in its marker.
      ASSERT_FALSE(a->completeness.truncated_sources.empty())
          << sql << " [" << bound_line << "]";
      ASSERT_LT(a->rows.size(), b->rows.size())
          << sql << " [" << bound_line
          << "]: marked partial but not a strict subset";
      for (const TruncationRecord& marker :
           a->completeness.truncated_sources) {
        EXPECT_EQ(marker.source, "R");
        EXPECT_GT(marker.bound, 0u);
        EXPECT_FALSE(marker.reason.empty());
      }
      ++partial;
    }
    // The size mismatch direction: a smaller answer MUST be marked.
    if (a->rows.size() < b->rows.size()) {
      ASSERT_FALSE(a->completeness.complete);
    }
  }
  // The configuration space must exercise both regimes, whatever the seed.
  EXPECT_GT(exact, 0u);
  EXPECT_GT(partial, 0u);
}

}  // namespace
}  // namespace gencompact
