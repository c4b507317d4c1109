// Event-loop execution suite: the in-flight limiter, admission control
// (both the backlog gate and the query-count gate), the Executor on a shared
// threaded loop (paging loops under the limiter, and never hedged), deadline
// discipline (a backoff that would overshoot the query deadline is never
// armed), join deadline propagation, joins through
// QueryAsync on the mediator's loop, the adaptive hedge quantile, and the
// mediator's QueryAsync entry point. Every wait that can run on a FakeClock
// does (the loop's Clock::AwaitFor advances virtual time instead of
// blocking); the handful of tests that need real concurrency (the
// query-count shed, join budgets) use real waits with wide margins.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <functional>
#include <future>
#include <mutex>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "exec/admission.h"
#include "exec/event_loop.h"
#include "exec/executor.h"
#include "exec/fault_policy.h"
#include "exec/inflight_limiter.h"
#include "exec/latency_tracker.h"
#include "expr/condition_parser.h"
#include "mediator/mediator.h"
#include "ssdl/ssdl_parser.h"

namespace gencompact {
namespace {

using std::chrono::microseconds;

constexpr std::chrono::steady_clock::time_point kNoDeadline{};

ConditionPtr Parse(const std::string& text) {
  Result<ConditionPtr> cond = ParseCondition(text);
  EXPECT_TRUE(cond.ok()) << cond.status().ToString();
  return std::move(cond).value();
}

bool SameRows(const RowSet& a, const RowSet& b) {
  if (a.size() != b.size()) return false;
  for (const Row& row : a.rows()) {
    if (!b.Contains(row)) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// InflightLimiter
// ---------------------------------------------------------------------------

TEST(InflightLimiterTest, UnlimitedByDefaultGrantsInline) {
  InflightLimiter limiter(InflightLimiterOptions{});
  int granted = 0;
  for (int i = 0; i < 5; ++i) {
    limiter.Acquire(1, kNoDeadline, [&](Status s) {
      EXPECT_TRUE(s.ok());
      ++granted;
    });
  }
  EXPECT_EQ(granted, 5);
  EXPECT_EQ(limiter.inflight(), 5u);
  EXPECT_EQ(limiter.queue_depth(), 0u);
  for (int i = 0; i < 5; ++i) limiter.Release(1);
  EXPECT_EQ(limiter.inflight(), 0u);
  EXPECT_EQ(limiter.admitted(), 5u);
}

TEST(InflightLimiterTest, GlobalCapQueuesAndGrantsFifoOnRelease) {
  InflightLimiterOptions options;
  options.global = 2;
  InflightLimiter limiter(options);
  std::vector<int> granted;
  const auto grant = [&granted](int id) {
    return [&granted, id](Status s) {
      EXPECT_TRUE(s.ok());
      granted.push_back(id);
    };
  };
  limiter.Acquire(1, kNoDeadline, grant(0));
  limiter.Acquire(1, kNoDeadline, grant(1));
  limiter.Acquire(1, kNoDeadline, grant(2));
  limiter.Acquire(2, kNoDeadline, grant(3));
  EXPECT_EQ(granted, (std::vector<int>{0, 1}));
  EXPECT_EQ(limiter.inflight(), 2u);
  EXPECT_EQ(limiter.queue_depth(), 2u);
  EXPECT_EQ(limiter.pending(), 4u);
  limiter.Release(1);
  EXPECT_EQ(granted, (std::vector<int>{0, 1, 2}));
  limiter.Release(1);
  EXPECT_EQ(granted, (std::vector<int>{0, 1, 2, 3}));
  limiter.Release(1);
  limiter.Release(2);
  EXPECT_EQ(limiter.inflight(), 0u);
  EXPECT_EQ(limiter.peak_inflight(), 2u);
  EXPECT_EQ(limiter.peak_queue_depth(), 2u);
  EXPECT_EQ(limiter.admitted(), 4u);
}

TEST(InflightLimiterTest, PerSourceCapDoesNotStarveOtherSources) {
  InflightLimiterOptions options;
  options.per_source = 1;
  InflightLimiter limiter(options);
  std::vector<int> granted;
  const auto grant = [&granted](int id) {
    return [&granted, id](Status s) {
      EXPECT_TRUE(s.ok());
      granted.push_back(id);
    };
  };
  limiter.Acquire(1, kNoDeadline, grant(0));  // source 1 at cap
  limiter.Acquire(1, kNoDeadline, grant(1));  // queued behind it
  limiter.Acquire(2, kNoDeadline, grant(2));  // different source: not blocked
  EXPECT_EQ(granted, (std::vector<int>{0, 2}));
  // FIFO per source: a later fetch for source 1 queues behind the earlier
  // waiter even though it would also fail the capacity check on its own.
  limiter.Acquire(1, kNoDeadline, grant(3));
  EXPECT_EQ(limiter.queue_depth(), 2u);
  limiter.Release(1);
  EXPECT_EQ(granted, (std::vector<int>{0, 2, 1}));
  limiter.Release(1);
  EXPECT_EQ(granted, (std::vector<int>{0, 2, 1, 3}));
}

TEST(InflightLimiterTest, ExpiredWaitersFailOnTheNextGrantPass) {
  FakeClock clock;
  clock.Advance(std::chrono::seconds(1));  // keep Now() distinct from "none"
  InflightLimiterOptions options;
  options.global = 1;
  InflightLimiter limiter(options, &clock);
  limiter.Acquire(1, kNoDeadline, [](Status s) { EXPECT_TRUE(s.ok()); });
  Status waiter = Status::OK();
  limiter.Acquire(1, clock.Now() + microseconds(1000),
                  [&waiter](Status s) { waiter = s; });
  EXPECT_EQ(limiter.queue_depth(), 1u);
  clock.Advance(microseconds(2000));  // the waiter's deadline passes
  limiter.Release(1);
  EXPECT_EQ(waiter.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(limiter.deadline_failures(), 1u);
  EXPECT_EQ(limiter.inflight(), 0u);
  EXPECT_EQ(limiter.queue_depth(), 0u);
}

TEST(InflightLimiterTest, AlreadyExpiredAcquireFailsWithoutQueueing) {
  FakeClock clock;
  clock.Advance(std::chrono::seconds(1));
  InflightLimiterOptions options;
  options.global = 1;
  InflightLimiter limiter(options, &clock);
  limiter.Acquire(1, kNoDeadline, [](Status s) { EXPECT_TRUE(s.ok()); });
  Status late = Status::OK();
  limiter.Acquire(1, clock.Now() - microseconds(1),
                  [&late](Status s) { late = s; });
  EXPECT_EQ(late.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(limiter.queue_depth(), 0u);
  EXPECT_EQ(limiter.deadline_failures(), 1u);
}

TEST(InflightLimiterTest, TryAcquireNeverQueues) {
  InflightLimiterOptions options;
  options.global = 1;
  InflightLimiter limiter(options);
  EXPECT_TRUE(limiter.TryAcquire(1));
  EXPECT_FALSE(limiter.TryAcquire(1));  // at the cap: skip, don't wait
  EXPECT_EQ(limiter.queue_depth(), 0u);
  limiter.Release(1);
  EXPECT_TRUE(limiter.TryAcquire(2));
  limiter.Release(2);
}

// ---------------------------------------------------------------------------
// AdmissionController
// ---------------------------------------------------------------------------

TEST(AdmissionControllerTest, DisabledAdmitsEverything) {
  AdmissionController admission(AdmissionOptions{});
  EXPECT_TRUE(
      admission.Admit(1000, microseconds(10000), microseconds(1)).ok());
  EXPECT_EQ(admission.rejections(), 0u);
}

TEST(AdmissionControllerTest, BacklogCapSheds) {
  AdmissionOptions options;
  options.enabled = true;
  options.max_pending = 4;
  AdmissionController admission(options);
  EXPECT_TRUE(admission.Admit(3, microseconds(0), microseconds(0)).ok());
  const Status shed = admission.Admit(4, microseconds(0), microseconds(0));
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.code(), StatusCode::kUnavailable);
  EXPECT_NE(shed.ToString().find("admission control"), std::string::npos);
  EXPECT_EQ(admission.rejections(), 1u);
}

TEST(AdmissionControllerTest, DoomedDeadlineSheds) {
  AdmissionOptions options;
  options.enabled = true;
  AdmissionController admission(options, /*max_queries=*/0,
                                /*drain_width=*/1);
  // One observed round trip already exceeds the budget: hopeless.
  const Status shed =
      admission.Admit(0, microseconds(10000), microseconds(1000));
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.code(), StatusCode::kUnavailable);
  EXPECT_NE(shed.ToString().find("exceeds deadline"), std::string::npos);
  // The same trip fits a 20ms budget.
  EXPECT_TRUE(
      admission.Admit(0, microseconds(10000), microseconds(20000)).ok());
}

TEST(AdmissionControllerTest, DrainWidthScalesTheExpectedWait) {
  AdmissionOptions options;
  options.enabled = true;
  AdmissionController narrow(options, /*max_queries=*/0, /*drain_width=*/4);
  // Backlog of 8 drained 4 at a time: (1 + 8/4) trips of 1ms = 3ms > 2ms.
  EXPECT_FALSE(narrow.Admit(8, microseconds(1000), microseconds(2000)).ok());
  AdmissionController wide(options, /*max_queries=*/0, /*drain_width=*/8);
  // Same backlog drained 8-wide: 2ms, exactly the budget — admitted.
  EXPECT_TRUE(wide.Admit(8, microseconds(1000), microseconds(2000)).ok());
}

TEST(AdmissionControllerTest, NoLatencySignalOrNoDeadlineAdmits) {
  AdmissionOptions options;
  options.enabled = true;
  AdmissionController admission(options, /*max_queries=*/0,
                                /*drain_width=*/1);
  // No digest yet (est 0): nothing to reason with, admit.
  EXPECT_TRUE(admission.Admit(50, microseconds(0), microseconds(1)).ok());
  // No deadline (budget 0): nothing to miss, admit.
  EXPECT_TRUE(admission.Admit(50, microseconds(10000), microseconds(0)).ok());
}

TEST(AdmissionControllerTest, QueryCountGateShedsAtTheCap) {
  // No cap: any load enters, and is counted.
  AdmissionController uncapped(AdmissionOptions{});
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(uncapped.EnterQuery().ok());
  EXPECT_EQ(uncapped.active_queries(), 100u);
  EXPECT_EQ(uncapped.rejections(), 0u);

  AdmissionController admission(AdmissionOptions{}, /*max_queries=*/2);
  EXPECT_TRUE(admission.EnterQuery().ok());
  EXPECT_TRUE(admission.EnterQuery().ok());
  // At the cap: shed, and the shed query is not counted.
  const Status shed = admission.EnterQuery();
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.code(), StatusCode::kUnavailable);
  EXPECT_NE(shed.ToString().find("max_inflight_queries"), std::string::npos);
  EXPECT_NE(shed.ToString().find("admission control"), std::string::npos);
  EXPECT_EQ(admission.rejections(), 1u);
  EXPECT_EQ(admission.active_queries(), 2u);
  // A query that leaves frees its slot for the next one.
  admission.LeaveQuery();
  EXPECT_TRUE(admission.EnterQuery().ok());
  EXPECT_FALSE(admission.EnterQuery().ok());
  EXPECT_EQ(admission.rejections(), 2u);
}

TEST(AdmissionControllerTest, ConcurrentEntrantsNeverExceedTheCap) {
  // Checking the cap and counting the query are one step: however the
  // threads interleave, no more than the cap are ever inside at once.
  constexpr size_t kCap = 2;
  constexpr int kThreads = 6;
  constexpr int kRounds = 20000;
  AdmissionController admission(AdmissionOptions{}, kCap);
  std::atomic<size_t> inside{0};
  std::atomic<size_t> peak{0};
  std::atomic<uint64_t> entered{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kRounds; ++i) {
        if (!admission.EnterQuery().ok()) continue;
        entered.fetch_add(1, std::memory_order_relaxed);
        const size_t now = inside.fetch_add(1) + 1;
        size_t seen = peak.load();
        while (now > seen && !peak.compare_exchange_weak(seen, now)) {
        }
        inside.fetch_sub(1);
        admission.LeaveQuery();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_LE(peak.load(), kCap);
  EXPECT_GE(peak.load(), 1u);
  EXPECT_EQ(admission.active_queries(), 0u);
  EXPECT_EQ(entered.load() + admission.rejections(),
            static_cast<uint64_t>(kThreads) * kRounds);
}

// ---------------------------------------------------------------------------
// Adaptive hedge quantile — straggler-rate convergence.
// ---------------------------------------------------------------------------

TEST(AdaptiveHedgeTest, FixedPolicyIgnoresTheDigest) {
  LatencyTracker tracker;
  for (int i = 0; i < 100; ++i) {
    tracker.Record(microseconds(i % 10 == 0 ? 10000 : 1000));
  }
  HedgePolicy policy;
  policy.quantile = 0.97;
  EXPECT_DOUBLE_EQ(EffectiveHedgeQuantile(policy, tracker), 0.97);
}

TEST(AdaptiveHedgeTest, NoStragglersStaysAtTheCeiling) {
  LatencyTracker tracker;
  for (int i = 0; i < 100; ++i) tracker.Record(microseconds(1000));
  EXPECT_DOUBLE_EQ(tracker.straggler_rate(), 0.0);
  HedgePolicy policy;
  policy.adaptive = true;
  EXPECT_DOUBLE_EQ(EffectiveHedgeQuantile(policy, tracker), 0.99);
}

TEST(AdaptiveHedgeTest, TenPercentStragglersConvergeToTheFloor) {
  // Every 10th call takes 10x the median: the measured straggler rate
  // converges to ~0.1, so the adaptive quantile (1 - rate) hits the 0.90
  // floor — a fat-tailed source hedges as early as the policy allows.
  LatencyTracker tracker;
  for (int i = 1; i <= 300; ++i) {
    tracker.Record(microseconds(i % 10 == 0 ? 10000 : 1000));
  }
  EXPECT_NEAR(tracker.straggler_rate(), 0.1, 0.02);
  HedgePolicy policy;
  policy.adaptive = true;
  EXPECT_NEAR(EffectiveHedgeQuantile(policy, tracker), 0.90, 0.015);
}

TEST(AdaptiveHedgeTest, ModerateStragglerRateLandsBetweenTheClamps) {
  // ~5% stragglers: the quantile settles near 0.95, strictly inside
  // [min_quantile, max_quantile].
  LatencyTracker tracker;
  for (int i = 1; i <= 400; ++i) {
    tracker.Record(microseconds(i % 20 == 0 ? 10000 : 1000));
  }
  EXPECT_NEAR(tracker.straggler_rate(), 0.05, 0.015);
  HedgePolicy policy;
  policy.adaptive = true;
  const double quantile = EffectiveHedgeQuantile(policy, tracker);
  EXPECT_NEAR(quantile, 0.95, 0.02);
  EXPECT_GT(quantile, policy.min_quantile);
  EXPECT_LT(quantile, policy.max_quantile);
}

// ---------------------------------------------------------------------------
// Shared single-source fixture.
// ---------------------------------------------------------------------------

constexpr const char* kSingleSourceSsdl = R"(
  source R(k: string, v: int) {
    rule s1 -> k = $string;
    rule s2 -> v < $int;
    rule s3 -> v >= $int;
    export s1 : {k, v};
    export s2 : {k, v};
    export s3 : {k, v};
  })";

// ---------------------------------------------------------------------------
// Query-deadline discipline of a blocking Execute: a backoff that would
// overshoot the query's absolute deadline is never armed, and a fetch whose
// deadline already passed never reaches the source. On a FakeClock a
// violation is visible as virtual time spent past the deadline.
// ---------------------------------------------------------------------------

class SyncDeadlineTest : public ::testing::Test {
 protected:
  SyncDeadlineTest()
      : description_(*ParseSsdl(kSingleSourceSsdl)),
        table_("R", description_.schema()),
        source_(&table_, &description_) {
    for (int i = 0; i < 10; ++i) {
      EXPECT_TRUE(table_
                      .AppendValues({Value::String(i % 2 ? "odd" : "even"),
                                     Value::Int(i)})
                      .ok());
    }
    source_.set_fault_policy(FaultPolicy{});
  }

  SourceDescription description_;
  Table table_;
  Source source_;
  FakeClock clock_;
};

TEST_F(SyncDeadlineTest, BackoffNeverSleepsPastTheQueryDeadline) {
  source_.fault_injector()->FailNextN(100);
  ExecOptions options;
  options.clock = &clock_;
  options.retry.max_attempts = 10;
  // base == cap pins the jitter draw: every delay is exactly 10ms — double
  // the 5ms budget, so the very first backoff would overshoot.
  options.retry.backoff.base = microseconds(10000);
  options.retry.backoff.cap = microseconds(10000);
  const auto deadline_point = clock_.Now() + microseconds(5000);
  options.deadline = deadline_point;
  Executor executor(&source_, /*pool=*/nullptr, options);
  const PlanPtr plan = PlanNode::SourceQuery(
      Parse("v < 3"), *description_.schema().MakeSet({"v"}));
  const Result<RowSet> rows = executor.Execute(*plan);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(rows.status().ToString().find("query deadline exceeded after 1"),
            std::string::npos);
  // The backoff was never armed — virtual time did not move, let alone past
  // the deadline.
  EXPECT_LT(clock_.Now(), deadline_point);
  const ExecStats stats = executor.stats();
  EXPECT_EQ(stats.deadlines_exceeded, 1u);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(source_.stats().queries_received, 1u);
}

TEST_F(SyncDeadlineTest, ExpiredDeadlineFailsFastWithoutContactingTheSource) {
  ExecOptions options;
  options.clock = &clock_;
  options.retry.max_attempts = 10;
  options.deadline = clock_.Now() + microseconds(5000);
  clock_.Advance(microseconds(6000));  // the deadline passes before we start
  Executor executor(&source_, /*pool=*/nullptr, options);
  const PlanPtr plan = PlanNode::SourceQuery(
      Parse("v < 3"), *description_.schema().MakeSet({"v"}));
  const Result<RowSet> rows = executor.Execute(*plan);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(rows.status().ToString().find("query deadline expired before"),
            std::string::npos);
  EXPECT_EQ(source_.stats().queries_received, 0u);
  EXPECT_EQ(executor.stats().deadlines_exceeded, 1u);
}

// ---------------------------------------------------------------------------
// The Executor on a shared threaded loop (the mediator's QueryAsync driver)
// — on the 10-row R(k, v) source from the fault suite. Execute submits to
// the loop thread and waits.
// ---------------------------------------------------------------------------

class AsyncExecFixture : public ::testing::Test {
 protected:
  explicit AsyncExecFixture(const char* ssdl = kSingleSourceSsdl)
      : description_(*ParseSsdl(ssdl)),
        table_("R", description_.schema()),
        source_(&table_, &description_),
        loop_(&clock_) {
    for (int i = 0; i < 10; ++i) {
      EXPECT_TRUE(table_
                      .AppendValues({Value::String(i % 2 ? "odd" : "even"),
                                     Value::Int(i)})
                      .ok());
    }
    source_.set_fault_policy(FaultPolicy{});  // injector for FailNextN
  }

  AttributeSet Attrs(const std::vector<std::string>& names) {
    return *description_.schema().MakeSet(names);
  }

  Result<RowSet> Run(const PlanNode& plan, ExecOptions options,
                     ExecStats* stats = nullptr) {
    options.clock = &clock_;
    Executor executor(&source_, nullptr, options, &loop_);
    Result<RowSet> rows = executor.Execute(plan);
    if (stats != nullptr) *stats = executor.stats();
    return rows;
  }

  SourceDescription description_;
  Table table_;
  Source source_;
  FakeClock clock_;  // declared before loop_: the loop is destroyed first
  LatencyTracker tracker_;
  EventLoop loop_;
};

TEST_F(AsyncExecFixture, SimulatedLatencyIsATimerNotASleep) {
  source_.set_simulated_latency(microseconds(5000));
  const PlanPtr plan = PlanNode::SourceQuery(Parse("v < 3"), Attrs({"v"}));
  const auto t0 = clock_.Now();
  const Result<RowSet> rows = Run(*plan, ExecOptions{});
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 3u);
  // The round trip elapsed on the virtual clock, not the wall clock.
  EXPECT_GE(clock_.Now() - t0, microseconds(5000));
}

TEST_F(AsyncExecFixture, LimiterSerializesFetchesOfOnePlan) {
  source_.set_simulated_latency(microseconds(1000));
  InflightLimiterOptions limiter_options;
  limiter_options.global = 1;
  InflightLimiter limiter(limiter_options, &clock_);
  ExecOptions options;
  options.limiter = &limiter;
  options.source_id = 7;
  const PlanPtr plan = PlanNode::UnionOf(
      {PlanNode::SourceQuery(Parse("v < 3"), Attrs({"v"})),
       PlanNode::SourceQuery(Parse("v >= 7"), Attrs({"v"})),
       PlanNode::SourceQuery(Parse("k = \"odd\""), Attrs({"v"}))});
  const auto t0 = clock_.Now();
  ExecStats stats;
  const Result<RowSet> rows = Run(*plan, options, &stats);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  // {0,1,2} u {7,8,9} u {1,3,5,7,9}
  EXPECT_EQ(rows->size(), 8u);
  EXPECT_EQ(stats.source_queries, 3u);
  // The union fans out all three fetches at once, but the limiter admits
  // exactly one round trip to the wire at a time.
  EXPECT_EQ(limiter.peak_inflight(), 1u);
  EXPECT_EQ(limiter.peak_queue_depth(), 2u);
  EXPECT_EQ(limiter.admitted(), 3u);
  EXPECT_EQ(limiter.inflight(), 0u);
  EXPECT_EQ(limiter.queue_depth(), 0u);
  EXPECT_GE(clock_.Now() - t0, microseconds(3000));  // serialized trips
}

TEST_F(AsyncExecFixture, HedgeRacesASlowPrimary) {
  // Warm digest says ~1ms; the source then serves 5ms calls, so the hedge
  // timer fires long before the primary completes. Both calls take 5ms, and
  // the primary's deadline is earlier — it wins the race deterministically,
  // and the hedge is abandoned on the wire.
  for (int i = 0; i < 32; ++i) tracker_.Record(microseconds(1000));
  source_.set_simulated_latency(microseconds(5000));
  ExecOptions options;
  options.latency = &tracker_;
  options.hedge.enabled = true;
  const PlanPtr plan = PlanNode::SourceQuery(Parse("v < 3"), Attrs({"v"}));
  ExecStats stats;
  const Result<RowSet> rows = Run(*plan, options, &stats);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 3u);
  EXPECT_EQ(stats.hedges_launched, 1u);
  EXPECT_EQ(stats.hedges_won, 0u);
  EXPECT_EQ(source_.stats().queries_received, 2u);
  EXPECT_EQ(source_.stats().queries_answered, 1u);
}

// The same R(k, v), behind a form that ships two rows per page and at most
// four per call: every fetch of more than two rows is a paging loop.
constexpr const char* kPagedSourceSsdl = R"(
  source R(k: string, v: int) {
    bound 4 page 2;
    rule s1 -> k = $string;
    rule s2 -> v < $int;
    rule s3 -> v >= $int;
    export s1 : {k, v};
    export s2 : {k, v};
    export s3 : {k, v};
  })";

class AsyncPagingFixture : public AsyncExecFixture {
 protected:
  AsyncPagingFixture() : AsyncExecFixture(kPagedSourceSsdl) {}
};

TEST_F(AsyncPagingFixture, PagesRunUnderTheLimiterOnePermitPerAttempt) {
  source_.set_simulated_latency(microseconds(1000));
  source_.fault_injector()->FailNextN(1);  // the first page fails once
  InflightLimiterOptions limiter_options;
  limiter_options.global = 1;
  InflightLimiter limiter(limiter_options, &clock_);
  ExecOptions options;
  options.limiter = &limiter;
  options.source_id = 7;
  options.retry.max_attempts = 3;
  // Two paging loops (4 and 2 pages) contend for the one permit.
  const PlanPtr plan =
      PlanNode::UnionOf({PlanNode::SourceQuery(Parse("v < 8"), Attrs({"v"})),
                         PlanNode::SourceQuery(Parse("v >= 6"), Attrs({"v"}))});
  const auto t0 = clock_.Now();
  ExecStats stats;
  const Result<RowSet> rows = Run(*plan, options, &stats);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 10u);  // {0..7} u {6..9}: exact
  EXPECT_EQ(stats.source_queries, 2u);
  EXPECT_EQ(stats.pages_fetched, 6u);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(source_.stats().queries_received, 7u);
  // One round trip on the wire at a time, one permit per attempt (pages
  // plus the retry), and every permit back once the answer is in.
  EXPECT_EQ(limiter.peak_inflight(), 1u);
  EXPECT_EQ(limiter.admitted(), stats.pages_fetched + stats.retries);
  EXPECT_EQ(limiter.inflight(), 0u);
  EXPECT_EQ(limiter.queue_depth(), 0u);
  // Six page trips of 1ms, serialized (the injected failure fails fast).
  EXPECT_GE(clock_.Now() - t0, microseconds(6000));
}

TEST_F(AsyncPagingFixture, PagingSourcesAreNeverHedged) {
  // Warm digest says ~1ms and every page takes 5ms, so an unbounded fetch
  // would hedge (HedgeRacesASlowPrimary); a paging loop must not.
  for (int i = 0; i < 32; ++i) tracker_.Record(microseconds(1000));
  source_.set_simulated_latency(microseconds(5000));
  ExecOptions options;
  options.latency = &tracker_;
  options.hedge.enabled = true;
  const PlanPtr plan = PlanNode::SourceQuery(Parse("v < 8"), Attrs({"v"}));
  ExecStats stats;
  const Result<RowSet> rows = Run(*plan, options, &stats);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 8u);
  EXPECT_EQ(stats.hedges_launched, 0u);
  EXPECT_EQ(stats.pages_fetched, 4u);
  EXPECT_EQ(source_.stats().queries_received, 4u);
  EXPECT_EQ(source_.stats().pages_served, 4u);
}

// ---------------------------------------------------------------------------
// Join deadline propagation: Mediator::Options::query_deadline is one
// absolute deadline every relation of a join shares, so the right side gets
// only what the left did not consume, and a budget the left exhausted fails
// the join before the right source is contacted. Real clock + real waits
// with wide margins (on the real clock a simulated round trip is a real
// wait).
// ---------------------------------------------------------------------------

constexpr const char* kJoinCarsSsdl = R"(
  source cars(make: string, model: string, price: int, year: int) {
    cost 10.0 1.0;
    rule f -> make = $string
            | make = $string and price < $int
            | price < $int;
    export f : {make, model, price, year};
  })";

constexpr const char* kJoinDealersSsdl = R"(
  source dealers(make: string, city: string, rating: int, since: int) {
    cost 5.0 1.0;
    rule mlist -> make = $string or make = $string
                | make = $string or mlist;
    rule f -> make = $string
            | mlist
            | ( mlist )
            | make = $string and rating >= $int
            | ( mlist ) and rating >= $int
            | rating >= $int and make = $string
            | rating >= $int and ( mlist );
    export f : {make, city, rating, since};
  })";

class JoinDeadlineTest : public ::testing::Test {
 protected:
  std::unique_ptr<Mediator> MakeMediator(const Mediator::Options& options) {
    auto mediator = std::make_unique<Mediator>(options);
    Result<SourceDescription> cars = ParseSsdl(kJoinCarsSsdl);
    Result<SourceDescription> dealers = ParseSsdl(kJoinDealersSsdl);
    EXPECT_TRUE(cars.ok()) << cars.status().ToString();
    EXPECT_TRUE(dealers.ok()) << dealers.status().ToString();

    auto cars_table = std::make_unique<Table>("cars", cars->schema());
    const auto add_car = [&](const char* make, const char* model,
                             int64_t price, int64_t year) {
      EXPECT_TRUE(cars_table
                      ->AppendValues({Value::String(make), Value::String(model),
                                      Value::Int(price), Value::Int(year)})
                      .ok());
    };
    add_car("BMW", "318i", 21000, 1996);
    add_car("BMW", "528i", 38000, 1997);
    add_car("Toyota", "Corolla", 13000, 1997);
    add_car("Toyota", "Camry", 19000, 1998);
    add_car("Saab", "900", 16000, 1995);

    auto dealers_table = std::make_unique<Table>("dealers", dealers->schema());
    const auto add_dealer = [&](const char* make, const char* city,
                                int64_t rating, int64_t since) {
      EXPECT_TRUE(dealers_table
                      ->AppendValues({Value::String(make), Value::String(city),
                                      Value::Int(rating), Value::Int(since)})
                      .ok());
    };
    add_dealer("BMW", "Palo Alto", 5, 1990);
    add_dealer("BMW", "San Jose", 3, 1995);
    add_dealer("Toyota", "Palo Alto", 4, 1985);
    add_dealer("Honda", "Fremont", 4, 1992);

    EXPECT_TRUE(mediator
                    ->RegisterSource(std::move(cars).value(),
                                     std::move(cars_table))
                    .ok());
    EXPECT_TRUE(mediator
                    ->RegisterSource(std::move(dealers).value(),
                                     std::move(dealers_table))
                    .ok());
    left_ = (*mediator->catalog()->Find("cars"))->source();
    right_ = (*mediator->catalog()->Find("dealers"))->source();
    right_->set_fault_policy(FaultPolicy{});
    return mediator;
  }

  static constexpr const char* kJoinSql =
      "SELECT cars.model, dealers.city FROM cars JOIN dealers "
      "ON cars.make = dealers.make WHERE cars.price < 30000";

  Source* left_ = nullptr;
  Source* right_ = nullptr;
};

TEST_F(JoinDeadlineTest, LeftSideExhaustingTheBudgetSkipsTheRightSide) {
  // The left side alone takes ~300ms against a 150ms budget: by the time it
  // returns, the join is already doomed — the right side fails with the
  // deadline and zero right-source calls.
  Mediator::Options options;
  options.query_deadline = std::chrono::milliseconds(150);
  const std::unique_ptr<Mediator> mediator = MakeMediator(options);
  left_->set_simulated_latency(std::chrono::milliseconds(300));
  const Result<Mediator::QueryResult> result = mediator->Query(kJoinSql);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(right_->stats().queries_received, 0u);
}

TEST_F(JoinDeadlineTest, SlowLeftShrinksTheRightSideBudget) {
  // Identical right-side fault schedule in both runs: one transient failure
  // whose retry needs a 200ms backoff. With a fast left the 400ms budget
  // absorbs the backoff and the retry recovers the join. With a left that
  // burns ~300ms of the same budget first, the backoff no longer fits what
  // remains — the executor refuses to arm the backoff and the join fails
  // with the deadline instead of waiting into it.
  Mediator::Options options;
  options.query_deadline = std::chrono::milliseconds(400);
  options.retry.max_attempts = 3;
  options.retry.backoff.base = std::chrono::milliseconds(200);
  options.retry.backoff.cap = std::chrono::milliseconds(200);
  const std::unique_ptr<Mediator> mediator = MakeMediator(options);

  // Fast left: the retry fits the remaining budget.
  right_->fault_injector()->FailNextN(1);
  const Result<Mediator::QueryResult> recovered = mediator->Query(kJoinSql);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->rows.size(), 4u);
  EXPECT_EQ(recovered->exec.retries, 1u);

  // Slow left: same failure, but the left consumed the budget the backoff
  // needed. The right side is attempted once (the deadline has not passed
  // yet) and then fails instead of waiting past the deadline. The retries
  // also arm the avoid-set replan, but a failure on the query deadline
  // starts no replan round: the left side is not fetched again.
  left_->set_simulated_latency(std::chrono::milliseconds(300));
  const size_t left_received_before = left_->stats().queries_received;
  const size_t right_received_before = right_->stats().queries_received;
  const uint64_t deadlines_before =
      mediator->StatsSnapshot().fault_tolerance.deadlines_exceeded;
  right_->fault_injector()->FailNextN(1);
  const Result<Mediator::QueryResult> doomed = mediator->Query(kJoinSql);
  ASSERT_FALSE(doomed.ok());
  EXPECT_EQ(doomed.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(left_->stats().queries_received, left_received_before + 1);
  EXPECT_EQ(right_->stats().queries_received, right_received_before + 1);
  EXPECT_EQ(mediator->StatsSnapshot().fault_tolerance.deadlines_exceeded,
            deadlines_before + 1);
}

// ---------------------------------------------------------------------------
// Joins through QueryAsync: the federation walk runs on the mediator's loop
// thread. A GatedClock holds that loop's virtual time still until the test
// opens it, so every join submitted before then starts at one instant.
// ---------------------------------------------------------------------------

/// A FakeClock whose timed waits block in real time until Open(), except on
/// the constructing thread: a threaded loop on it runs posted work but lets
/// no virtual time pass, while a blocking query's private loop on the test
/// thread is never held.
class GatedClock : public Clock {
 public:
  std::chrono::steady_clock::time_point Now() override { return clock_.Now(); }
  void SleepFor(std::chrono::microseconds duration) override {
    clock_.SleepFor(duration);
  }
  bool AwaitFor(std::condition_variable& cv, std::unique_lock<std::mutex>& lock,
                std::chrono::microseconds timeout,
                const std::function<bool()>& pred) override {
    while (std::this_thread::get_id() != owner_ && !open_.load()) {
      if (cv.wait_for(lock, std::chrono::milliseconds(1), pred)) return true;
    }
    return clock_.AwaitFor(cv, lock, timeout, pred);
  }
  void Open() { open_.store(true); }

 private:
  FakeClock clock_;
  const std::thread::id owner_ = std::this_thread::get_id();
  std::atomic<bool> open_{false};
};

class AsyncJoinTest : public JoinDeadlineTest {
 protected:
  std::unique_ptr<Mediator> MakeJoinMediator() {
    Mediator::Options options;
    options.clock = &clock_;
    std::unique_ptr<Mediator> mediator = MakeMediator(options);
    left_->set_simulated_latency(kTrip);
    right_->set_simulated_latency(kTrip);
    return mediator;
  }

  static constexpr microseconds kTrip{10000};
  GatedClock clock_;
};

TEST_F(AsyncJoinTest, QueryAsyncRunsJoinsOnTheMediatorLoop) {
  const std::unique_ptr<Mediator> mediator = MakeJoinMediator();
  const Result<Mediator::QueryResult> sync = mediator->Query(kJoinSql);
  ASSERT_TRUE(sync.ok()) << sync.status().ToString();

  std::promise<Result<Mediator::QueryResult>> promise;
  std::atomic<bool> fired{false};
  std::thread::id callback_thread;
  mediator->QueryAsync(kJoinSql, [&](Result<Mediator::QueryResult> result) {
    callback_thread = std::this_thread::get_id();
    fired.store(true);
    promise.set_value(std::move(result));
  });
  // Not inline: the join's round trips wait on the (gated) mediator loop.
  EXPECT_FALSE(fired.load());
  clock_.Open();
  const Result<Mediator::QueryResult> async = promise.get_future().get();
  EXPECT_NE(callback_thread, std::this_thread::get_id());
  ASSERT_TRUE(async.ok()) << async.status().ToString();
  EXPECT_TRUE(SameRows(async->rows, sync->rows));
  EXPECT_EQ(async->rows.size(), 4u);
  EXPECT_EQ(async->exec.source_queries, sync->exec.source_queries);
  EXPECT_DOUBLE_EQ(async->true_cost, sync->true_cost);
  EXPECT_EQ(mediator->StatsSnapshot().join.federated_queries, 2u);
}

TEST_F(AsyncJoinTest, BackToBackJoinsOverlapOnTheLoop) {
  // Each join is two round trips deep (cars, then one dealers batch). Four
  // submitted back to back all start at one virtual instant and land one
  // join's time later, not four.
  const std::unique_ptr<Mediator> mediator = MakeJoinMediator();
  constexpr int kJoins = 4;
  std::vector<std::promise<std::chrono::steady_clock::time_point>> landed(
      kJoins);
  for (int i = 0; i < kJoins; ++i) {
    mediator->QueryAsync(kJoinSql, [this, &landed, i](
                                       Result<Mediator::QueryResult> result) {
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      landed[i].set_value(clock_.Now());
    });
  }
  const auto wait_start = std::chrono::steady_clock::now();
  while (left_->stats().queries_received < kJoins &&
         std::chrono::steady_clock::now() - wait_start <
             std::chrono::seconds(10)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(left_->stats().queries_received, static_cast<size_t>(kJoins));
  const auto start = clock_.Now();
  clock_.Open();
  for (int i = 0; i < kJoins; ++i) {
    EXPECT_EQ(landed[i].get_future().get() - start, 2 * kTrip) << "join " << i;
  }
  EXPECT_EQ(right_->stats().peak_inflight, static_cast<size_t>(kJoins));
}

TEST_F(AsyncJoinTest, BlockingJoinsNeverStartTheMediatorLoop) {
  const std::unique_ptr<Mediator> mediator = MakeJoinMediator();
  for (int i = 0; i < 3; ++i) {
    const Result<Mediator::QueryResult> result = mediator->Query(kJoinSql);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  const Mediator::Stats stats = mediator->StatsSnapshot();
  EXPECT_EQ(stats.join.federated_queries, 3u);
  EXPECT_EQ(stats.scheduler.tasks_run, 0u);
  EXPECT_EQ(stats.scheduler.timers_fired, 0u);
}

// ---------------------------------------------------------------------------
// Seeded interleaving confidence for the limiter + admission pair is in
// event_loop_test.cc; mediator integration below.
// ---------------------------------------------------------------------------

class AsyncMediatorTest : public ::testing::Test {
 protected:
  std::unique_ptr<Mediator> MakeMediator(Mediator::Options options,
                                         bool fake_clock = true) {
    if (fake_clock) options.clock = &clock_;
    auto mediator = std::make_unique<Mediator>(options);
    Result<SourceDescription> description = ParseSsdl(kSingleSourceSsdl);
    EXPECT_TRUE(description.ok()) << description.status().ToString();
    auto table = std::make_unique<Table>("R", description->schema());
    for (int i = 0; i < 10; ++i) {
      EXPECT_TRUE(table
                      ->AppendValues({Value::String(i % 2 ? "odd" : "even"),
                                      Value::Int(i)})
                      .ok());
    }
    EXPECT_TRUE(mediator
                    ->RegisterSource(std::move(description).value(),
                                     std::move(table))
                    .ok());
    return mediator;
  }

  Source* SourceOf(Mediator* mediator) {
    const Result<CatalogEntry*> entry = mediator->catalog()->Find("R");
    EXPECT_TRUE(entry.ok());
    return (*entry)->source();
  }

  FakeClock clock_;
};

TEST_F(AsyncMediatorTest, QueryAsyncDeliversTheSameAnswer) {
  const auto mediator = MakeMediator(Mediator::Options{});
  const char* sql = "SELECT v FROM R WHERE v < 5 or k = \"odd\"";
  const Result<Mediator::QueryResult> sync = mediator->Query(sql);
  ASSERT_TRUE(sync.ok()) << sync.status().ToString();

  std::promise<Result<Mediator::QueryResult>> promise;
  mediator->QueryAsync(sql, [&promise](Result<Mediator::QueryResult> r) {
    promise.set_value(std::move(r));
  });
  const Result<Mediator::QueryResult> async = promise.get_future().get();
  ASSERT_TRUE(async.ok()) << async.status().ToString();
  EXPECT_TRUE(SameRows(async->rows, sync->rows));
  EXPECT_EQ(async->exec.source_queries, sync->exec.source_queries);
  EXPECT_TRUE(async->completeness.complete);
}

TEST_F(AsyncMediatorTest, AdmissionShedsHopelessQueriesBeforePlanning) {
  Mediator::Options options;
  options.admission.enabled = true;
  options.query_deadline = microseconds(1000);
  const auto mediator = MakeMediator(options);
  // One warm query measures the source at ~10ms per round trip — ten times
  // the 1ms deadline, so every later query is hopeless on arrival.
  SourceOf(mediator.get())->set_simulated_latency(microseconds(10000));
  const Result<Mediator::QueryResult> warm =
      mediator->Query("SELECT v FROM R WHERE v < 5");
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();

  const Mediator::Stats before = mediator->StatsSnapshot();
  const Result<Mediator::QueryResult> shed =
      mediator->Query("SELECT k FROM R WHERE v >= 7");
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(shed.status().ToString().find("admission control"),
            std::string::npos);
  const Mediator::Stats after = mediator->StatsSnapshot();
  // Shed up front: no planning happened (no new plan-cache lookup) and the
  // source was never contacted.
  EXPECT_EQ(after.plan_cache.misses, before.plan_cache.misses);
  EXPECT_EQ(after.plan_cache.hits, before.plan_cache.hits);
  EXPECT_EQ(SourceOf(mediator.get())->stats().queries_received, 1u);
  EXPECT_EQ(after.scheduler.admission_rejections, 1u);
  EXPECT_EQ(after.fault_tolerance.queries_shed,
            before.fault_tolerance.queries_shed + 1);
}

TEST_F(AsyncMediatorTest, QueryCountGateShedsOverloadBeforePlanning) {
  // The query-count gate needs no limiter (blocking queries pump their own
  // loops): max_inflight_queries = 1 means a second query arriving while
  // the first still executes is shed before planning.
  Mediator::Options options;
  options.max_inflight_queries = 1;
  const auto mediator = MakeMediator(options, /*fake_clock=*/false);
  // On the real clock the simulated round trip is a real wait: the first
  // query occupies the mediator for ~300ms.
  SourceOf(mediator.get())->set_simulated_latency(microseconds(300000));

  std::thread slow([&] {
    const Result<Mediator::QueryResult> result =
        mediator->Query("SELECT v FROM R WHERE v < 5");
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  });
  // Wait until the slow query is provably past admission AND planning (its
  // call is on the simulated wire), so the snapshot below is stable.
  const auto wait_start = std::chrono::steady_clock::now();
  while (SourceOf(mediator.get())->inflight() == 0 &&
         std::chrono::steady_clock::now() - wait_start <
             std::chrono::seconds(10)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(SourceOf(mediator.get())->inflight(), 1u);

  const Mediator::Stats before = mediator->StatsSnapshot();
  EXPECT_EQ(before.scheduler.active_queries, 1u);
  const Result<Mediator::QueryResult> shed =
      mediator->Query("SELECT k FROM R WHERE v >= 7");
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(shed.status().ToString().find("max_inflight_queries"),
            std::string::npos);
  const Mediator::Stats after = mediator->StatsSnapshot();
  // Shed before planning: no new plan-cache traffic, no source contact.
  EXPECT_EQ(after.plan_cache.misses, before.plan_cache.misses);
  EXPECT_EQ(after.scheduler.admission_rejections, 1u);
  EXPECT_EQ(after.fault_tolerance.queries_shed,
            before.fault_tolerance.queries_shed + 1);
  EXPECT_EQ(SourceOf(mediator.get())->stats().queries_received, 1u);
  // The gate's gauges print without the limiter: its rejections are not
  // only `queries.shed`.
  EXPECT_TRUE(after.scheduler.gated);
  EXPECT_FALSE(after.scheduler.enabled);
  const std::string rendered = after.ToString();
  EXPECT_NE(rendered.find("scheduler.adm_rejected   1"), std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find("scheduler.active_queries 1"), std::string::npos)
      << rendered;
  EXPECT_EQ(rendered.find("scheduler.inflight"), std::string::npos);

  slow.join();
  // With the slow query answered, the gate admits again.
  const Result<Mediator::QueryResult> ok =
      mediator->Query("SELECT k FROM R WHERE v >= 7");
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(mediator->StatsSnapshot().scheduler.active_queries, 0u);
}

TEST_F(AsyncMediatorTest, SchedulerGaugesAppearOnlyWhenAsync) {
  // An in-flight cap builds the limiter, and with it every single-source
  // query runs on the mediator's loop thread, where the limiter counts it.
  Mediator::Options options;
  options.inflight.global = 4;
  const auto capped = MakeMediator(options);
  ASSERT_TRUE(capped->Query("SELECT v FROM R WHERE v < 5").ok());
  const Mediator::Stats stats = capped->StatsSnapshot();
  EXPECT_TRUE(stats.scheduler.enabled);
  EXPECT_GE(stats.scheduler.limiter_admitted, 1u);
  EXPECT_GE(stats.scheduler.tasks_run, 1u);
  EXPECT_EQ(stats.scheduler.inflight_fetches, 0u);  // nothing in flight now
  EXPECT_NE(stats.ToString().find("scheduler.inflight"), std::string::npos);
  // Without a gate the admission gauges still count and print.
  EXPECT_FALSE(stats.scheduler.gated);
  EXPECT_NE(stats.ToString().find("scheduler.active_queries 0"),
            std::string::npos);

  // The backlog gate builds the limiter too.
  Mediator::Options gated_options;
  gated_options.admission.enabled = true;
  const auto gated = MakeMediator(gated_options);
  ASSERT_TRUE(gated->Query("SELECT v FROM R WHERE v < 5").ok());
  EXPECT_TRUE(gated->StatsSnapshot().scheduler.enabled);

  // Neither configured: no limiter, no gauges — the blocking query pumped
  // its own loop and the mediator loop ran nothing.
  const auto plain = MakeMediator(Mediator::Options{});
  ASSERT_TRUE(plain->Query("SELECT v FROM R WHERE v < 5").ok());
  const Mediator::Stats plain_stats = plain->StatsSnapshot();
  EXPECT_FALSE(plain_stats.scheduler.enabled);
  EXPECT_EQ(plain_stats.scheduler.tasks_run, 0u);
  EXPECT_EQ(plain_stats.ToString().find("scheduler."), std::string::npos);
}

}  // namespace
}  // namespace gencompact
