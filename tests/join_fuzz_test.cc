// Seeded multi-source answer-equivalence fuzzer: random connected query
// graphs (2–4 capability-limited sources joined on a shared string key) ×
// random per-source pushdowns and cross-source residuals × random tables,
// executed through the mediator's federated path and compared against a
// nested-loop oracle over the raw tables.
//
// Invariants:
//  - an answer the mediator reports COMPLETE is bit-identical to the
//    nested-loop join (pushdown split, bind batching, hash joins, and
//    residual evaluation lose and invent nothing);
//  - every answer is a subset of the true join — truncated sources shrink
//    it, never corrupt it;
//  - an answer smaller than the true join is NEVER silent: completeness
//    carries a truncation marker naming the bounded source.
//
// The base seed comes from GENCOMPACT_TEST_SEED (default 439) so CI can run
// a seed matrix.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
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

// Every fuzz source has the same shape: a string join key from a small
// shared pool and an int payload. Capabilities: single-key or key-list
// queries (so bind-joins and their value-list batches are always legal),
// plus int range pushdowns — but NO download, so a relation whose pushdown
// is empty cannot be fetched independently and must be reached via a bind
// edge.
constexpr const char* kSourceTemplate = R"(
source %s(k: string, v: int) {
  cost 10.0 1.0;
  %s
  rule klist -> k = $string or k = $string
              | k = $string or klist;
  rule f -> k = $string
          | klist
          | ( klist )
          | v < $int
          | v >= $int
          | v >= $int and v < $int
          | k = $string and v < $int;
  export f : {k, v};
})";

// One atom of the generated WHERE clause, kept structured so the oracle can
// evaluate it directly instead of re-parsing the SQL text.
struct Atom {
  int rel = 0;
  enum Kind { kLess, kGreaterEq, kKeyEq } kind = kLess;
  int64_t c = 0;
  std::string key;

  bool Holds(const std::string& k, int64_t v) const {
    switch (kind) {
      case kLess:
        return v < c;
      case kGreaterEq:
        return v >= c;
      case kKeyEq:
        return k == key;
    }
    return false;
  }

  std::string Render(const std::vector<std::string>& names) const {
    switch (kind) {
      case kLess:
        return names[rel] + ".v < " + std::to_string(c);
      case kGreaterEq:
        return names[rel] + ".v >= " + std::to_string(c);
      case kKeyEq:
        return names[rel] + ".k = \"" + key + "\"";
    }
    return "";
  }
};

Atom RandomAtom(int rel, Rng* rng) {
  Atom atom;
  atom.rel = rel;
  switch (rng->NextIndex(3)) {
    case 0:
      atom.kind = Atom::kLess;
      atom.c = static_cast<int64_t>(1 + rng->NextIndex(20));
      break;
    case 1:
      atom.kind = Atom::kGreaterEq;
      atom.c = static_cast<int64_t>(rng->NextIndex(20));
      break;
    default:
      atom.kind = Atom::kKeyEq;
      atom.key = "s" + std::to_string(rng->NextIndex(4));
      break;
  }
  return atom;
}

struct FuzzCase {
  std::vector<std::string> names;
  std::vector<int> parent;  ///< parent[i] for i >= 1: the join-tree edge
  std::vector<std::vector<std::pair<std::string, int64_t>>> tables;
  std::vector<Atom> conjuncts;             ///< ANDed
  std::vector<std::pair<Atom, Atom>> ors;  ///< ANDed (a or b) residuals
  int bounded_rel = -1;                    ///< -1 = no bound anywhere
  std::string sql;
};

FuzzCase RandomCase(Rng* rng) {
  FuzzCase fc;
  const size_t n = 2 + rng->NextIndex(3);  // 2..4 sources
  for (size_t i = 0; i < n; ++i) {
    fc.names.push_back("f" + std::to_string(i));
  }
  fc.parent.assign(n, -1);
  for (size_t i = 1; i < n; ++i) {
    fc.parent[i] = static_cast<int>(rng->NextIndex(i));  // random tree
  }

  fc.tables.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t rows = 5 + rng->NextIndex(21);
    for (size_t r = 0; r < rows; ++r) {
      fc.tables[i].emplace_back("s" + std::to_string(rng->NextIndex(4)),
                                static_cast<int64_t>(rng->NextIndex(20)));
    }
  }

  // Relation 0 always gets an atom, so at least one leaf of every join tree
  // has a feasible independent fetch; the rest get one with probability.
  fc.conjuncts.push_back(RandomAtom(0, rng));
  for (size_t i = 1; i < n; ++i) {
    if (rng->NextBool(0.6)) fc.conjuncts.push_back(RandomAtom(i, rng));
  }
  if (rng->NextBool(0.5)) {
    const int a = static_cast<int>(rng->NextIndex(n));
    int b = static_cast<int>(rng->NextIndex(n));
    if (b == a) b = (a + 1) % static_cast<int>(n);
    fc.ors.emplace_back(RandomAtom(a, rng), RandomAtom(b, rng));
  }

  // Sometimes bound one source without paging: the only legal outcome is a
  // marked-partial subset (paged bounds are covered by bounded_fuzz_test).
  if (rng->NextBool(0.35)) {
    fc.bounded_rel = static_cast<int>(rng->NextIndex(n));
  }

  std::string sql = "SELECT * FROM " + fc.names[0];
  for (size_t i = 1; i < n; ++i) {
    sql += " JOIN " + fc.names[i] + " ON " + fc.names[fc.parent[i]] +
           ".k = " + fc.names[i] + ".k";
  }
  sql += " WHERE ";
  bool first = true;
  for (const Atom& atom : fc.conjuncts) {
    if (!first) sql += " and ";
    sql += atom.Render(fc.names);
    first = false;
  }
  for (const auto& [a, b] : fc.ors) {
    if (!first) sql += " and ";
    sql += "(" + a.Render(fc.names) + " or " + b.Render(fc.names) + ")";
    first = false;
  }
  fc.sql = std::move(sql);
  return fc;
}

// Nested-loop oracle: every tuple in the cross product that satisfies all
// join edges and the full condition, rendered to the mediator's output
// shape (all attributes, FROM order) and deduped.
std::vector<std::string> OracleSignatures(const FuzzCase& fc) {
  const size_t n = fc.names.size();
  std::set<std::string> out;
  std::vector<size_t> idx(n, 0);
  while (true) {
    bool ok = true;
    for (size_t i = 1; i < n && ok; ++i) {
      ok = fc.tables[i][idx[i]].first ==
           fc.tables[fc.parent[i]][idx[fc.parent[i]]].first;
    }
    if (ok) {
      for (const Atom& atom : fc.conjuncts) {
        const auto& [k, v] = fc.tables[atom.rel][idx[atom.rel]];
        if (!atom.Holds(k, v)) {
          ok = false;
          break;
        }
      }
    }
    if (ok) {
      for (const auto& [a, b] : fc.ors) {
        const auto& [ka, va] = fc.tables[a.rel][idx[a.rel]];
        const auto& [kb, vb] = fc.tables[b.rel][idx[b.rel]];
        if (!a.Holds(ka, va) && !b.Holds(kb, vb)) {
          ok = false;
          break;
        }
      }
    }
    if (ok) {
      std::string sig;
      for (size_t i = 0; i < n; ++i) {
        const auto& [k, v] = fc.tables[i][idx[i]];
        sig += "string:\"" + k + "\"|int:" + std::to_string(v) + "|";
      }
      out.insert(std::move(sig));
    }
    size_t d = 0;
    while (d < n && ++idx[d] == fc.tables[d].size()) {
      idx[d] = 0;
      ++d;
    }
    if (d == n) break;
  }
  return std::vector<std::string>(out.begin(), out.end());
}

std::unique_ptr<Mediator> BuildMediator(const FuzzCase& fc, Clock* clock) {
  Mediator::Options options;
  options.partial_results = true;
  options.retry.max_attempts = 4;
  options.retry.backoff.base = std::chrono::microseconds(1);
  options.retry.backoff.cap = std::chrono::microseconds(2);
  options.clock = clock;
  auto mediator = std::make_unique<Mediator>(options);
  for (size_t i = 0; i < fc.names.size(); ++i) {
    const std::string bound_line =
        static_cast<int>(i) == fc.bounded_rel ? "bound 3;" : "";
    char ssdl[1024];
    std::snprintf(ssdl, sizeof(ssdl), kSourceTemplate, fc.names[i].c_str(),
                  bound_line.c_str());
    Result<SourceDescription> description = ParseSsdl(ssdl);
    EXPECT_TRUE(description.ok()) << description.status().ToString();
    auto table = std::make_unique<Table>(fc.names[i], description->schema());
    for (const auto& [k, v] : fc.tables[i]) {
      EXPECT_TRUE(table->AppendValues({Value::String(k), Value::Int(v)}).ok());
    }
    EXPECT_TRUE(mediator
                    ->RegisterSource(std::move(description).value(),
                                     std::move(table))
                    .ok());
  }
  return mediator;
}

TEST(JoinFuzzTest, FederatedAnswersMatchNestedLoopOracle) {
  const uint64_t base = BaseSeed();
  FakeClock clock;
  size_t exact = 0, partial = 0, multiway = 0;
  constexpr size_t kTrials = 40;
  for (size_t trial = 0; trial < kTrials; ++trial) {
    Rng rng(base * 6151 + trial * 104729);
    const FuzzCase fc = RandomCase(&rng);
    if (fc.names.size() > 2) ++multiway;

    std::unique_ptr<Mediator> mediator = BuildMediator(fc, &clock);
    const std::vector<std::string> truth = OracleSignatures(fc);

    const Result<Mediator::QueryResult> got = mediator->Query(fc.sql);
    ASSERT_TRUE(got.ok()) << fc.sql << ": " << got.status().ToString();
    std::vector<std::string> answer = Signature(got->rows);
    // Both sides sorted the same way (lexicographically) so set comparison
    // below is well defined; SortedRows orders by Value, not by signature.
    std::sort(answer.begin(), answer.end());

    // Subset always: the federation never invents rows.
    ASSERT_TRUE(std::includes(truth.begin(), truth.end(), answer.begin(),
                              answer.end()))
        << fc.sql << ": invented rows";

    if (got->completeness.complete) {
      ASSERT_EQ(answer, truth) << fc.sql;
      ASSERT_TRUE(got->completeness.truncated_sources.empty());
      ++exact;
    } else {
      ASSERT_FALSE(got->completeness.truncated_sources.empty()) << fc.sql;
      ++partial;
    }
    // The critical direction: a short answer is NEVER silent.
    if (answer.size() < truth.size()) {
      ASSERT_FALSE(got->completeness.complete)
          << fc.sql << ": silently truncated (" << answer.size() << " of "
          << truth.size() << " rows)";
      ASSERT_FALSE(got->completeness.truncated_sources.empty());
    }
  }
  std::printf("join fuzz: %zu exact, %zu partial, %zu multiway of %zu\n",
              exact, partial, multiway, kTrials);
  // Whatever the seed, the space must exercise exact multi-way answers.
  EXPECT_GT(exact, 0u);
  EXPECT_GT(multiway, 0u);
}

}  // namespace
}  // namespace gencompact
