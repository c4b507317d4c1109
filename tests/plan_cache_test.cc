#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>
#include <type_traits>
#include <vector>

#include "expr/condition_parser.h"
#include "mediator/mediator.h"
#include "planner/plan_cache.h"
#include "ssdl/ssdl_parser.h"

// Binary-wide allocation counter for the zero-allocation-per-hit assertions:
// PlanCacheKey is a POD built from field loads, so neither MakeKey nor a
// cache hit may touch the heap. Counting delegates to malloc/free, which the
// sanitizers intercept as usual.
namespace {
std::atomic<size_t> g_allocations{0};
}  // namespace

// GCC inlines these into callers and then flags the free() in operator
// delete as mismatched with operator new, not seeing that this operator new
// returns malloc() memory.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace gencompact {
namespace {

ConditionPtr Parse(const std::string& text) {
  Result<ConditionPtr> cond = ParseCondition(text);
  EXPECT_TRUE(cond.ok()) << cond.status().ToString();
  return std::move(cond).value();
}

PlanPtr PlanFor(const ConditionPtr& cond) {
  return PlanNode::SourceQuery(cond, AttributeSet());
}

PlanCacheKey KeyFor(const ConditionNode& cond, uint32_t source_id = 0) {
  return PlanCache::MakeKey(source_id, Strategy::kGenCompact, cond,
                            AttributeSet());
}

TEST(PlanCacheTest, MissThenHit) {
  PlanCache cache(4);
  const ConditionPtr cond = Parse("a = 1");
  const PlanCacheKey key = KeyFor(*cond);
  EXPECT_FALSE(cache.Lookup(key).has_value());
  cache.Insert(key, PlanFor(cond));
  const std::optional<PlanPtr> hit = cache.Lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ((*hit)->condition()->ToString(), "a = 1");
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(PlanCacheTest, EvictsLeastRecentlyUsed) {
  PlanCache cache(2);
  const ConditionPtr a = Parse("a = 1");
  const ConditionPtr b = Parse("b = 1");
  const ConditionPtr c = Parse("c = 1");
  cache.Insert(KeyFor(*a), PlanFor(a));
  cache.Insert(KeyFor(*b), PlanFor(b));
  ASSERT_TRUE(cache.Lookup(KeyFor(*a)).has_value());  // refresh a
  cache.Insert(KeyFor(*c), PlanFor(c));               // evicts b
  EXPECT_TRUE(cache.Lookup(KeyFor(*a)).has_value());
  EXPECT_FALSE(cache.Lookup(KeyFor(*b)).has_value());
  EXPECT_TRUE(cache.Lookup(KeyFor(*c)).has_value());
  EXPECT_EQ(cache.size(), 2u);
}

TEST(PlanCacheTest, ReinsertRefreshes) {
  PlanCache cache(2);
  const ConditionPtr a = Parse("a = 1");
  const ConditionPtr a2 = Parse("a = 2");
  const ConditionPtr b = Parse("b = 1");
  const ConditionPtr c = Parse("c = 1");
  cache.Insert(KeyFor(*a), PlanFor(a));
  cache.Insert(KeyFor(*b), PlanFor(b));
  cache.Insert(KeyFor(*a), PlanFor(a2));  // refresh + replace
  cache.Insert(KeyFor(*c), PlanFor(c));   // evicts b
  const std::optional<PlanPtr> hit = cache.Lookup(KeyFor(*a));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ((*hit)->condition()->ToString(), "a = 2");
  EXPECT_FALSE(cache.Lookup(KeyFor(*b)).has_value());
}

TEST(PlanCacheTest, KeySeparatesDimensions) {
  const ConditionPtr cond = Parse("a = 1");
  const ConditionPtr cond2 = Parse("a = 2");
  AttributeSet attrs1;
  attrs1.Add(0);
  AttributeSet attrs2;
  attrs2.Add(1);
  const PlanCacheKey base =
      PlanCache::MakeKey(0, Strategy::kGenCompact, *cond, attrs1);
  EXPECT_FALSE(base ==
               PlanCache::MakeKey(1, Strategy::kGenCompact, *cond, attrs1));
  EXPECT_FALSE(base == PlanCache::MakeKey(0, Strategy::kCnf, *cond, attrs1));
  EXPECT_FALSE(base ==
               PlanCache::MakeKey(0, Strategy::kGenCompact, *cond, attrs2));
  EXPECT_FALSE(base ==
               PlanCache::MakeKey(0, Strategy::kGenCompact, *cond2, attrs1));
  // Hash consing: a re-parse of the same text is the same condition, so it
  // builds an identical key.
  EXPECT_TRUE(base == PlanCache::MakeKey(0, Strategy::kGenCompact,
                                         *Parse("a = 1"), attrs1));
}

TEST(PlanCacheTest, KeyIsPodAndHitsAllocateNothing) {
  static_assert(std::is_trivially_copyable_v<PlanCacheKey>,
                "cache keys must be bitwise-copyable PODs");
  PlanCache cache(4);
  const ConditionPtr cond = Parse("a = 1 and b = 2");
  AttributeSet attrs;
  attrs.Add(0);
  cache.Insert(PlanCache::MakeKey(0, Strategy::kGenCompact, *cond, attrs),
               PlanFor(cond));

  // Key construction: field loads only.
  const size_t before_key = g_allocations.load();
  const PlanCacheKey key =
      PlanCache::MakeKey(0, Strategy::kGenCompact, *cond, attrs);
  const size_t after_key = g_allocations.load();
  EXPECT_EQ(before_key, after_key) << "MakeKey allocated";

  // Warm hit: hash, find, list splice — no allocation anywhere.
  ASSERT_TRUE(cache.Lookup(key).has_value());
  const size_t before_hit = g_allocations.load();
  const std::optional<PlanPtr> hit = cache.Lookup(key);
  const size_t after_hit = g_allocations.load();
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(before_hit, after_hit) << "cache hit allocated";
}

TEST(PlanCacheTest, ClearEmpties) {
  PlanCache cache(4);
  const ConditionPtr a = Parse("a = 1");
  cache.Insert(KeyFor(*a), PlanFor(a));
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Lookup(KeyFor(*a)).has_value());
}

TEST(PlanCacheTest, RefreshOnInsertCountsAsRefreshNotHitOrMiss) {
  PlanCache cache(4);
  const ConditionPtr a = Parse("a = 1");
  const ConditionPtr a2 = Parse("a = 2");
  cache.Insert(KeyFor(*a), PlanFor(a));
  cache.Insert(KeyFor(*a), PlanFor(a2));  // refresh of an existing key
  EXPECT_EQ(cache.refreshes(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  ASSERT_TRUE(cache.Lookup(KeyFor(*a)).has_value());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_DOUBLE_EQ(cache.hit_rate(), 1.0);
}

TEST(PlanCacheTest, HitRateReflectsLookupsOnly) {
  PlanCache cache(8);
  const ConditionPtr k = Parse("k = 1");
  EXPECT_DOUBLE_EQ(cache.hit_rate(), 0.0);  // no lookups yet
  EXPECT_FALSE(cache.Lookup(KeyFor(*k)).has_value());
  cache.Insert(KeyFor(*k), PlanFor(k));
  ASSERT_TRUE(cache.Lookup(KeyFor(*k)).has_value());
  ASSERT_TRUE(cache.Lookup(KeyFor(*k)).has_value());
  ASSERT_TRUE(cache.Lookup(KeyFor(*k)).has_value());
  EXPECT_DOUBLE_EQ(cache.hit_rate(), 0.75);  // 3 hits / 4 lookups
}

TEST(PlanCacheTest, ShardedCacheKeepsLruSemanticsPerShard) {
  PlanCache cache(64, /*num_shards=*/8);
  EXPECT_EQ(cache.num_shards(), 8u);
  std::vector<ConditionPtr> conds;
  for (int i = 0; i < 64; ++i) {
    conds.push_back(Parse("a = " + std::to_string(i)));
    cache.Insert(KeyFor(*conds.back()), PlanFor(conds.back()));
  }
  size_t found = 0;
  for (const ConditionPtr& cond : conds) {
    if (cache.Lookup(KeyFor(*cond)).has_value()) ++found;
  }
  // Hashing is uneven, so a few shards may have evicted, but the cache must
  // retain the bulk of a capacity-sized working set.
  EXPECT_GE(found, 40u);
  EXPECT_LE(cache.size(), cache.capacity());
}

TEST(PlanCacheConcurrencyTest, EightThreadsHammerShardedCache) {
  constexpr size_t kThreads = 8;
  constexpr size_t kOpsPerThread = 2000;
  constexpr size_t kKeySpace = 64;
  PlanCache cache(128, /*num_shards=*/8);

  // Pre-parse the plans and keys outside the threads; the cache is the
  // object under test here, and parsing is not thread-relevant.
  std::vector<PlanPtr> plans;
  std::vector<PlanCacheKey> keys;
  plans.reserve(kKeySpace);
  keys.reserve(kKeySpace);
  for (size_t i = 0; i < kKeySpace; ++i) {
    const ConditionPtr cond = Parse("a = " + std::to_string(i));
    plans.push_back(PlanFor(cond));
    keys.push_back(KeyFor(*cond));
  }

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &cache, &plans, &keys]() {
      for (size_t op = 0; op < kOpsPerThread; ++op) {
        const size_t k = (op * 31 + t * 17) % kKeySpace;
        if (op % 3 == 0) {
          cache.Insert(keys[k], plans[k]);
        } else if (const std::optional<PlanPtr> plan = cache.Lookup(keys[k])) {
          // Shared plans must stay alive and well-formed while other
          // threads insert/evict.
          EXPECT_EQ((*plan)->kind(), PlanNode::Kind::kSourceQuery);
        }
      }
      cache.hit_rate();  // concurrent stat reads must not race either
    });
  }
  for (std::thread& thread : threads) thread.join();

  // Every lookup was either a hit or a miss — no op lost to a race.
  const size_t inserts_per_thread = (kOpsPerThread + 2) / 3;  // ops % 3 == 0
  const size_t lookups = kThreads * (kOpsPerThread - inserts_per_thread);
  EXPECT_EQ(cache.hits() + cache.misses(), lookups);
  EXPECT_LE(cache.size(), cache.capacity());
}

TEST(MediatorPlanCacheTest, RepeatedQueriesHitTheCache) {
  Result<SourceDescription> description = ParseSsdl(R"(
    source cars(make: string, model: string, price: int) {
      cost 10.0 1.0;
      rule s1 -> make = $string and price < $int;
      export s1 : {make, model, price};
    })");
  ASSERT_TRUE(description.ok());
  auto table = std::make_unique<Table>("cars", description->schema());
  ASSERT_TRUE(table
                  ->AppendValues({Value::String("BMW"), Value::String("318i"),
                                  Value::Int(21000)})
                  .ok());
  Mediator mediator;
  ASSERT_TRUE(mediator
                  .RegisterSource(std::move(description).value(),
                                  std::move(table))
                  .ok());

  const std::string sql =
      "SELECT model FROM cars WHERE make = \"BMW\" and price < 30000";
  ASSERT_TRUE(mediator.Query(sql).ok());
  EXPECT_EQ(mediator.plan_cache().hits(), 0u);
  ASSERT_TRUE(mediator.Query(sql).ok());
  ASSERT_TRUE(mediator.Query(sql).ok());
  EXPECT_EQ(mediator.plan_cache().hits(), 2u);
  // A different projection misses.
  ASSERT_TRUE(mediator
                  .Query("SELECT make FROM cars WHERE make = \"BMW\" and "
                         "price < 30000")
                  .ok());
  EXPECT_EQ(mediator.plan_cache().hits(), 2u);
  EXPECT_EQ(mediator.plan_cache().size(), 2u);
}

TEST(MediatorSimplifyTest, UnsatisfiableQueryAnswersEmptyWithoutPlanning) {
  Result<SourceDescription> description = ParseSsdl(R"(
    source cars(make: string, model: string, price: int) {
      cost 10.0 1.0;
      rule s1 -> make = $string;
      export s1 : {make, model, price};
    })");
  ASSERT_TRUE(description.ok());
  auto table = std::make_unique<Table>("cars", description->schema());
  ASSERT_TRUE(table
                  ->AppendValues({Value::String("BMW"), Value::String("318i"),
                                  Value::Int(21000)})
                  .ok());
  Mediator mediator;
  ASSERT_TRUE(mediator
                  .RegisterSource(std::move(description).value(),
                                  std::move(table))
                  .ok());

  // price predicates are unsupported — but the condition is unsatisfiable,
  // so the mediator answers locally.
  const Result<Mediator::QueryResult> result = mediator.Query(
      "SELECT model FROM cars WHERE make = \"BMW\" and make = \"Audi\"");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->rows.empty());
  EXPECT_EQ(result->exec.source_queries, 0u);
  EXPECT_EQ(result->plan, nullptr);
}

}  // namespace
}  // namespace gencompact
