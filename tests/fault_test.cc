// Fault-tolerance test suite: deterministic fault injection, retry/backoff,
// circuit breaking, graceful union degradation, and avoid-set re-planning.
// Every schedule here is seeded and every "wait" runs on a FakeClock, so the
// suite is instantaneous and replays bit-identically run after run.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/backoff.h"
#include "common/clock.h"
#include "common/thread_pool.h"
#include "exec/circuit_breaker.h"
#include "exec/event_loop.h"
#include "exec/executor.h"
#include "exec/fault_policy.h"
#include "expr/condition_parser.h"
#include "mediator/mediator.h"
#include "ssdl/ssdl_parser.h"

namespace gencompact {
namespace {

using std::chrono::microseconds;

ConditionPtr Parse(const std::string& text) {
  Result<ConditionPtr> cond = ParseCondition(text);
  EXPECT_TRUE(cond.ok()) << cond.status().ToString();
  return std::move(cond).value();
}

// ---------------------------------------------------------------------------
// Backoff
// ---------------------------------------------------------------------------

TEST(BackoffTest, DelaysStayWithinPolicyBounds) {
  BackoffPolicy policy;
  policy.base = microseconds(1000);
  policy.cap = microseconds(20000);
  DecorrelatedJitterBackoff backoff(policy, /*seed=*/7);
  microseconds prev = policy.base;
  for (int i = 0; i < 200; ++i) {
    const microseconds d = backoff.NextDelay();
    EXPECT_GE(d, policy.base);
    EXPECT_LE(d, policy.cap);
    // Decorrelated jitter: each delay is drawn from [base, 3 * previous].
    EXPECT_LE(d.count(), std::min<int64_t>(3 * prev.count(),
                                           policy.cap.count()));
    prev = d;
  }
}

TEST(BackoffTest, SameSeedReplaysSameSchedule) {
  const BackoffPolicy policy;
  DecorrelatedJitterBackoff a(policy, 42);
  DecorrelatedJitterBackoff b(policy, 42);
  DecorrelatedJitterBackoff c(policy, 43);
  bool any_difference = false;
  for (int i = 0; i < 64; ++i) {
    const microseconds da = a.NextDelay();
    EXPECT_EQ(da, b.NextDelay());
    any_difference |= (da != c.NextDelay());
  }
  EXPECT_TRUE(any_difference);  // different seeds draw different jitter
}

TEST(BackoffTest, ResetRestartsTheSchedule) {
  DecorrelatedJitterBackoff a(BackoffPolicy{}, 5);
  std::vector<microseconds> first;
  for (int i = 0; i < 8; ++i) first.push_back(a.NextDelay());
  a.Reset();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(a.NextDelay(), first[i]);
}

// ---------------------------------------------------------------------------
// FakeClock
// ---------------------------------------------------------------------------

TEST(FakeClockTest, SleepAdvancesInsteadOfBlocking) {
  FakeClock clock;
  const auto t0 = clock.Now();
  clock.SleepFor(microseconds(5000));
  EXPECT_EQ(clock.Now() - t0, microseconds(5000));
  clock.Advance(microseconds(123));
  EXPECT_EQ(clock.Now() - t0, microseconds(5123));
}

// ---------------------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, ZeroPolicyNeverFires) {
  FaultInjector injector{FaultPolicy{}};
  EXPECT_FALSE(injector.policy().active());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(injector.NextCall().code, StatusCode::kOk);
  }
  EXPECT_EQ(injector.stats().calls, 100u);
  EXPECT_EQ(injector.stats().injected_unavailable, 0u);
}

TEST(FaultInjectorTest, ScheduleIsDeterministicFromTheSeed) {
  FaultPolicy policy;
  policy.seed = 99;
  policy.transient_error_rate = 0.3;
  FaultInjector a(policy);
  FaultInjector b(policy);
  size_t faults = 0;
  for (int i = 0; i < 500; ++i) {
    const StatusCode code = a.NextCall().code;
    EXPECT_EQ(code, b.NextCall().code) << "call " << i;
    if (code != StatusCode::kOk) ++faults;
  }
  // ~150 expected at rate 0.3; very loose bounds, but the exact count is
  // pinned by the seed so this can never flake.
  EXPECT_GT(faults, 100u);
  EXPECT_LT(faults, 200u);
  EXPECT_EQ(a.stats().injected_unavailable, faults);
}

TEST(FaultInjectorTest, ConcurrentAggregateMatchesSequentialSchedule) {
  FaultPolicy policy;
  policy.seed = 12345;
  policy.transient_error_rate = 0.25;
  constexpr int kCalls = 2000;

  FaultInjector sequential(policy);
  for (int i = 0; i < kCalls; ++i) sequential.NextCall();

  // Faults are a pure function of (seed, call index), so however the 8
  // threads interleave, the 2000 indices drawn are the same set and the
  // aggregate counters match the sequential run exactly.
  FaultInjector concurrent(policy);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&concurrent] {
      for (int i = 0; i < kCalls / 8; ++i) concurrent.NextCall();
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(concurrent.stats().calls, sequential.stats().calls);
  EXPECT_EQ(concurrent.stats().injected_unavailable,
            sequential.stats().injected_unavailable);
}

TEST(FaultInjectorTest, OutageWindowFailsEveryCallInside) {
  FaultPolicy policy;
  policy.outages.push_back({3, 6});
  FaultInjector injector(policy);
  for (uint64_t i = 0; i < 10; ++i) {
    const StatusCode code = injector.NextCall().code;
    if (i >= 3 && i < 6) {
      EXPECT_EQ(code, StatusCode::kUnavailable) << "call " << i;
    } else {
      EXPECT_EQ(code, StatusCode::kOk) << "call " << i;
    }
  }
  EXPECT_EQ(injector.stats().injected_unavailable, 3u);
}

TEST(FaultInjectorTest, FailNextNScriptsFailuresOnAnInactivePolicy) {
  FaultInjector injector{FaultPolicy{}};
  injector.FailNextN(2);
  EXPECT_EQ(injector.NextCall().code, StatusCode::kUnavailable);
  EXPECT_EQ(injector.NextCall().code, StatusCode::kUnavailable);
  EXPECT_EQ(injector.NextCall().code, StatusCode::kOk);
}

TEST(FaultInjectorTest, StuckAndSlowCallsCarryLatency) {
  FaultPolicy policy;
  policy.seed = 4;
  policy.stuck_call_rate = 1.0;
  policy.stuck_penalty = microseconds(111);
  FaultInjector stuck(policy);
  const FaultInjector::Decision d = stuck.NextCall();
  EXPECT_EQ(d.code, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(d.extra_latency, microseconds(111));
  EXPECT_EQ(stuck.stats().injected_timeouts, 1u);

  FaultPolicy slow_policy;
  slow_policy.slow_call_rate = 1.0;
  slow_policy.slow_latency = microseconds(222);
  FaultInjector slow(slow_policy);
  const FaultInjector::Decision s = slow.NextCall();
  EXPECT_EQ(s.code, StatusCode::kOk);  // slow calls still answer
  EXPECT_EQ(s.extra_latency, microseconds(222));
  EXPECT_EQ(slow.stats().injected_slow, 1u);
}

// ---------------------------------------------------------------------------
// CircuitBreaker
// ---------------------------------------------------------------------------

TEST(CircuitBreakerTest, ClosedToOpenToHalfOpenToClosed) {
  FakeClock clock;
  CircuitBreakerOptions options;
  options.failure_threshold = 2;
  options.open_duration = microseconds(1000);
  CircuitBreaker breaker(options, &clock);

  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  ASSERT_TRUE(breaker.Allow());
  breaker.OnFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  ASSERT_TRUE(breaker.Allow());
  breaker.OnFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);

  // Open: fast rejection, no source contact.
  EXPECT_FALSE(breaker.Allow());
  EXPECT_EQ(breaker.stats().rejected, 1u);

  // Window expires -> half-open admits one probe, holds the second.
  clock.Advance(microseconds(1001));
  EXPECT_TRUE(breaker.Allow());
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(breaker.Allow());

  breaker.OnSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.stats().opened, 1u);
  EXPECT_EQ(breaker.stats().closed, 1u);
  EXPECT_EQ(breaker.stats().probes_admitted, 1u);
}

TEST(CircuitBreakerTest, FailedProbeReopensAFullWindow) {
  FakeClock clock;
  CircuitBreakerOptions options;
  options.failure_threshold = 1;
  options.open_duration = microseconds(1000);
  CircuitBreaker breaker(options, &clock);

  ASSERT_TRUE(breaker.Allow());
  breaker.OnFailure();  // trips immediately
  clock.Advance(microseconds(1001));
  ASSERT_TRUE(breaker.Allow());  // probe
  breaker.OnFailure();           // probe fails
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.Allow());  // a fresh window is in force
  EXPECT_EQ(breaker.stats().opened, 2u);
}

TEST(CircuitBreakerTest, SuccessResetsTheConsecutiveFailureStreak) {
  CircuitBreakerOptions options;
  options.failure_threshold = 3;
  FakeClock clock;
  CircuitBreaker breaker(options, &clock);
  for (int round = 0; round < 10; ++round) {
    ASSERT_TRUE(breaker.Allow());
    breaker.OnFailure();
    ASSERT_TRUE(breaker.Allow());
    breaker.OnFailure();
    ASSERT_TRUE(breaker.Allow());
    breaker.OnSuccess();  // streak broken at 2 < 3: never trips
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.stats().opened, 0u);
}

TEST(CircuitBreakerTest, HammerConcurrentCallersKeepInvariants) {
  FakeClock clock;
  CircuitBreakerOptions options;
  options.failure_threshold = 3;
  options.open_duration = microseconds(50);
  CircuitBreaker breaker(options, &clock);

  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&breaker, &clock, t] {
      for (int i = 0; i < 2000; ++i) {
        if (breaker.Allow()) {
          // Mixed verdicts keep the breaker cycling through all states.
          if ((t + i) % 3 == 0) {
            breaker.OnFailure();
          } else {
            breaker.OnSuccess();
          }
        } else {
          clock.Advance(microseconds(7));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const CircuitBreaker::Stats stats = breaker.stats();
  // Every close is preceded by an open, and probes only exist because some
  // window expired.
  EXPECT_GE(stats.opened, stats.closed);
  EXPECT_GE(stats.probes_admitted, stats.closed);
  // The final Allow/OnX pairing left no probe permanently leaked: after
  // enough window time, a call gets through again.
  clock.Advance(microseconds(1000));
  EXPECT_TRUE(breaker.Allow() || breaker.Allow());
  breaker.OnSuccess();
}

// ---------------------------------------------------------------------------
// Executor-level fault tolerance (retry loop, budget, deadline, breaker,
// degradation). All on the 10-row R(k, v) source from exec_test.
// ---------------------------------------------------------------------------

class FaultExecFixture : public ::testing::Test {
 protected:
  FaultExecFixture()
      : description_(*ParseSsdl(R"(
          source R(k: string, v: int) {
            rule s1 -> k = $string;
            rule s2 -> v < $int;
            rule s3 -> v >= $int;
            export s1 : {k, v};
            export s2 : {k, v};
            export s3 : {k, v};
          })")),
        table_("R", description_.schema()),
        source_(&table_, &description_) {
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

  ExecOptions RetryOptions(size_t max_attempts) {
    ExecOptions options;
    options.retry.max_attempts = max_attempts;
    options.clock = &clock_;
    return options;
  }

  SourceDescription description_;
  Table table_;
  Source source_;
  FakeClock clock_;
};

TEST_F(FaultExecFixture, SourceFailsFastWhenFaultFires) {
  source_.fault_injector()->FailNextN(1);
  const Result<RowSet> rows =
      source_.Execute(*Parse("v < 3"), Attrs({"v"}));
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(IsRetryable(rows.status().code()));
  EXPECT_EQ(source_.stats().queries_unavailable, 1u);
  EXPECT_EQ(source_.stats().queries_answered, 0u);
}

TEST_F(FaultExecFixture, RetriesRecoverScriptedTransientFailures) {
  source_.fault_injector()->FailNextN(2);
  Executor executor(&source_, nullptr, RetryOptions(/*max_attempts=*/4));
  const PlanPtr plan = PlanNode::SourceQuery(Parse("v < 3"), Attrs({"v"}));
  const Result<RowSet> rows = executor.Execute(*plan);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 3u);
  EXPECT_EQ(executor.stats().retries, 2u);
  EXPECT_EQ(executor.stats().failed_sub_queries, 0u);
  EXPECT_EQ(source_.stats().queries_received, 3u);
  // The FakeClock advanced by the backoff sleeps: time was "spent" without
  // the test blocking.
  EXPECT_GT(clock_.Now().time_since_epoch().count(), 0);
}

TEST_F(FaultExecFixture, AttemptCapExhaustsAndPropagates) {
  source_.fault_injector()->FailNextN(10);
  Executor executor(&source_, nullptr, RetryOptions(3));
  const PlanPtr plan = PlanNode::SourceQuery(Parse("v < 3"), Attrs({"v"}));
  const Result<RowSet> rows = executor.Execute(*plan);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(executor.stats().retries, 2u);  // 3 attempts = 2 retries
  EXPECT_EQ(executor.stats().failed_sub_queries, 1u);
  EXPECT_EQ(source_.stats().queries_received, 3u);
}

TEST_F(FaultExecFixture, RetryBudgetIsSharedAcrossSubQueries) {
  source_.fault_injector()->FailNextN(100);
  ExecOptions options = RetryOptions(10);
  options.retry.retry_budget = 3;  // execution-wide, not per sub-query
  Executor executor(&source_, nullptr, options);
  const PlanPtr plan = PlanNode::UnionOf(
      {PlanNode::SourceQuery(Parse("v < 3"), Attrs({"v"})),
       PlanNode::SourceQuery(Parse("v >= 7"), Attrs({"v"}))});
  EXPECT_FALSE(executor.Execute(*plan).ok());
  EXPECT_EQ(executor.stats().retries, 3u);
  // Both sub-queries start together: 2 first attempts + the 3 budgeted
  // retries, whichever sub-query draws them; every later retry finds the
  // budget spent.
  EXPECT_EQ(source_.stats().queries_received, 5u);
}

TEST_F(FaultExecFixture, UnsupportedIsNeverRetried) {
  Executor executor(&source_, nullptr, RetryOptions(5));
  const PlanPtr plan = PlanNode::SourceQuery(
      Parse("k = \"odd\" and v < 5"), Attrs({"v"}));  // no rule covers this
  const Result<RowSet> rows = executor.Execute(*plan);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kUnsupported);
  EXPECT_EQ(executor.stats().retries, 0u);
  EXPECT_EQ(source_.stats().queries_received, 1u);
}

TEST_F(FaultExecFixture, SubQueryDeadlineCutsTheRetryLoop) {
  source_.fault_injector()->FailNextN(100);
  ExecOptions options = RetryOptions(100);
  options.retry.backoff.base = microseconds(10000);
  options.retry.sub_query_deadline = microseconds(25000);
  Executor executor(&source_, nullptr, options);
  const PlanPtr plan = PlanNode::SourceQuery(Parse("v < 3"), Attrs({"v"}));
  const Result<RowSet> rows = executor.Execute(*plan);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(rows.status().ToString().find("sub-query deadline exceeded"),
            std::string::npos);
  EXPECT_EQ(executor.stats().deadlines_exceeded, 1u);
  // The loop gave up before blowing the deadline, not after: all FakeClock
  // backoff so far fits inside it.
  EXPECT_LE(clock_.Now().time_since_epoch(), microseconds(25000));
}

TEST_F(FaultExecFixture, BreakerStopsContactingADeadSource) {
  FaultPolicy dead;
  dead.transient_error_rate = 1.0;
  source_.set_fault_policy(dead);

  CircuitBreakerOptions breaker_options;
  breaker_options.failure_threshold = 3;
  breaker_options.open_duration = microseconds(1000000000);  // stays open
  CircuitBreaker breaker(breaker_options, &clock_);

  ExecOptions options = RetryOptions(10);
  options.breaker = &breaker;
  Executor executor(&source_, nullptr, options);
  const PlanPtr plan = PlanNode::SourceQuery(Parse("v < 3"), Attrs({"v"}));
  const Result<RowSet> rows = executor.Execute(*plan);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(rows.status().message().find("circuit breaker open"),
            std::string::npos);
  // Three failures trip the breaker; the remaining attempts never reach the
  // source.
  EXPECT_EQ(source_.stats().queries_received, 3u);
  EXPECT_GT(executor.stats().breaker_rejections, 0u);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);

  // The breaker is shared per source: a *different* execution fails fast
  // without a single round trip.
  Executor second(&source_, nullptr, options);
  EXPECT_FALSE(second.Execute(*plan).ok());
  EXPECT_EQ(source_.stats().queries_received, 3u);
}

TEST_F(FaultExecFixture, BreakerRecoversThroughHalfOpenProbe) {
  CircuitBreakerOptions breaker_options;
  breaker_options.failure_threshold = 2;
  breaker_options.open_duration = microseconds(1000);
  CircuitBreaker breaker(breaker_options, &clock_);

  ExecOptions options = RetryOptions(1);
  options.breaker = &breaker;
  const PlanPtr plan = PlanNode::SourceQuery(Parse("v < 3"), Attrs({"v"}));

  source_.fault_injector()->FailNextN(2);
  Executor failing(&source_, nullptr, options);
  EXPECT_FALSE(failing.Execute(*plan).ok());
  EXPECT_FALSE(failing.Execute(*plan).ok());
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);

  // While open: rejected without contact.
  const size_t received = source_.stats().queries_received;
  EXPECT_FALSE(failing.Execute(*plan).ok());
  EXPECT_EQ(source_.stats().queries_received, received);

  // The source heals, the window expires, one probe closes the breaker.
  clock_.Advance(microseconds(1001));
  const Result<RowSet> rows = failing.Execute(*plan);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

TEST_F(FaultExecFixture, DegradedUnionReturnsAnnotatedPartialAnswer) {
  source_.fault_injector()->FailNextN(1);
  ExecOptions options;
  options.degrade_unions = true;
  options.clock = &clock_;
  Executor executor(&source_, nullptr, options);
  const PlanPtr plan = PlanNode::UnionOf(
      {PlanNode::SourceQuery(Parse("k = \"odd\""), Attrs({"v"})),
       PlanNode::SourceQuery(Parse("v < 3"), Attrs({"v"}))});
  const Result<RowSet> rows = executor.Execute(*plan);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 3u);  // only the surviving v < 3 branch
  EXPECT_EQ(executor.stats().dropped_branches, 1u);
  const std::vector<std::string> dropped = executor.dropped_sub_queries();
  ASSERT_EQ(dropped.size(), 1u);
  EXPECT_NE(dropped[0].find("odd"), std::string::npos);
}

TEST_F(FaultExecFixture, AllBranchesDownIsAFailureNotAnEmptyAnswer) {
  FaultPolicy dead;
  dead.outages.push_back({0, 1000000});
  source_.set_fault_policy(dead);
  ExecOptions options;
  options.degrade_unions = true;
  options.clock = &clock_;
  Executor executor(&source_, nullptr, options);
  const PlanPtr plan = PlanNode::UnionOf(
      {PlanNode::SourceQuery(Parse("k = \"odd\""), Attrs({"v"})),
       PlanNode::SourceQuery(Parse("v < 3"), Attrs({"v"}))});
  const Result<RowSet> rows = executor.Execute(*plan);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kUnavailable);
}

TEST_F(FaultExecFixture, IntersectionBranchesNeverDegrade) {
  source_.fault_injector()->FailNextN(1);
  ExecOptions options;
  options.degrade_unions = true;
  options.clock = &clock_;
  Executor executor(&source_, nullptr, options);
  const PlanPtr plan = PlanNode::IntersectOf(
      {PlanNode::SourceQuery(Parse("v < 6"), Attrs({"v"})),
       PlanNode::SourceQuery(Parse("v >= 4"), Attrs({"v"}))});
  // Dropping an ∧/∩ branch would *grow* the answer: never degraded.
  EXPECT_EQ(executor.Execute(*plan).status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(executor.stats().dropped_branches, 0u);
}

TEST_F(FaultExecFixture, PermanentErrorsAreNotDegradedAway) {
  ExecOptions options;
  options.degrade_unions = true;
  options.clock = &clock_;
  Executor executor(&source_, nullptr, options);
  const PlanPtr plan = PlanNode::UnionOf(
      {PlanNode::SourceQuery(Parse("k = \"odd\" and v < 5"), Attrs({"v"})),
       PlanNode::SourceQuery(Parse("v < 3"), Attrs({"v"}))});
  // kUnsupported is a capability verdict, not an outage: it must surface.
  EXPECT_EQ(executor.Execute(*plan).status().code(),
            StatusCode::kUnsupported);
}

TEST_F(FaultExecFixture, ZeroFaultRunIsBitIdenticalWithToleranceEnabled) {
  const PlanPtr plan = PlanNode::UnionOf(
      {PlanNode::SourceQuery(Parse("v < 6"), Attrs({"v"})),
       PlanNode::SourceQuery(Parse("v >= 4"), Attrs({"v"}))});

  Executor plain(&source_);
  const Result<RowSet> baseline = plain.Execute(*plan);
  ASSERT_TRUE(baseline.ok());

  CircuitBreaker breaker({}, &clock_);
  ExecOptions options = RetryOptions(5);
  options.breaker = &breaker;
  options.degrade_unions = true;
  source_.ResetStats();
  Executor tolerant(&source_, nullptr, options);
  const Result<RowSet> rows = tolerant.Execute(*plan);
  ASSERT_TRUE(rows.ok());

  EXPECT_EQ(rows->size(), baseline.value().size());
  for (const Row& row : baseline.value().rows()) {
    EXPECT_TRUE(rows.value().Contains(row));
  }
  EXPECT_EQ(tolerant.stats().source_queries, plain.stats().source_queries);
  EXPECT_EQ(tolerant.stats().rows_transferred,
            plain.stats().rows_transferred);
  EXPECT_EQ(tolerant.stats().retries, 0u);
  EXPECT_EQ(tolerant.stats().dropped_branches, 0u);
  EXPECT_EQ(tolerant.stats().breaker_rejections, 0u);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  // No fault-tolerance path touched the clock.
  EXPECT_EQ(clock_.Now().time_since_epoch().count(), 0);
}

// ---------------------------------------------------------------------------
// Mediator-level: partial answers, re-planning, stats snapshot.
// ---------------------------------------------------------------------------

constexpr const char* kMediatorSsdl = R"(
source R(k: string, v: int) {
  rule s1 -> k = $string;
  rule s2 -> v < $int;
  rule s3 -> v >= $int;
  export s1 : {k, v};
  export s2 : {k, v};
  export s3 : {k, v};
})";

class MediatorFaultTest : public ::testing::Test {
 protected:
  std::unique_ptr<Mediator> MakeMediator(Mediator::Options options) {
    options.clock = &clock_;
    auto mediator = std::make_unique<Mediator>(options);
    Result<SourceDescription> description = ParseSsdl(kMediatorSsdl);
    EXPECT_TRUE(description.ok());
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
    Result<CatalogEntry*> entry = mediator->catalog()->Find("R");
    EXPECT_TRUE(entry.ok());
    return (*entry)->source();
  }

  FakeClock clock_;
};

TEST_F(MediatorFaultTest, HardOutageYieldsAnnotatedPartialAnswer) {
  Mediator::Options options;
  options.partial_results = true;
  std::unique_ptr<Mediator> mediator = MakeMediator(options);
  // Hard outage over the first call: whichever ∨-branch runs first dies.
  FaultPolicy policy;
  policy.outages.push_back({0, 1});
  SourceOf(mediator.get())->set_fault_policy(policy);

  const Result<Mediator::QueryResult> result =
      mediator->Query("SELECT k, v FROM R WHERE k = \"odd\" or v < 3");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->completeness.complete);
  ASSERT_EQ(result->completeness.dropped_sub_queries.size(), 1u);
  EXPECT_EQ(result->exec.dropped_branches, 1u);
  // The full answer has 7 rows; a one-branch answer is a strict subset.
  EXPECT_GT(result->rows.size(), 0u);
  EXPECT_LT(result->rows.size(), 7u);

  const Mediator::Stats stats = mediator->StatsSnapshot();
  EXPECT_EQ(stats.fault_tolerance.queries_ok, 1u);
  EXPECT_EQ(stats.fault_tolerance.queries_partial, 1u);
  EXPECT_EQ(stats.fault_tolerance.dropped_branches, 1u);
}

TEST_F(MediatorFaultTest, CompleteAnswersStayUnannotated) {
  Mediator::Options options;
  options.partial_results = true;
  std::unique_ptr<Mediator> mediator = MakeMediator(options);
  const Result<Mediator::QueryResult> result =
      mediator->Query("SELECT k, v FROM R WHERE k = \"odd\" or v < 3");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->completeness.complete);
  EXPECT_TRUE(result->completeness.dropped_sub_queries.empty());
  // odd rows (v = 1, 3, 5, 7, 9) ∪ v < 3 rows (0, 1, 2) = 7 distinct rows.
  EXPECT_EQ(result->rows.size(), 7u);
}

TEST_F(MediatorFaultTest, ConjunctiveQueriesFailRatherThanDegrade) {
  Mediator::Options options;
  options.partial_results = true;
  std::unique_ptr<Mediator> mediator = MakeMediator(options);
  SourceOf(mediator.get())->set_fault_policy(FaultPolicy{});
  SourceOf(mediator.get())->fault_injector()->FailNextN(100);
  const Result<Mediator::QueryResult> result =
      mediator->Query("SELECT k FROM R WHERE k = \"odd\" and v < 5");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(mediator->StatsSnapshot().fault_tolerance.queries_failed, 1u);
}

TEST_F(MediatorFaultTest, ReplanRoutesAroundAFailedSubQuery) {
  Mediator::Options options;
  options.retry.max_attempts = 2;  // retries arm the avoid-set re-plan
  std::unique_ptr<Mediator> mediator = MakeMediator(options);
  SourceOf(mediator.get())->set_fault_policy(FaultPolicy{});
  // The first fetch fails on both of its attempts, so the execution fails
  // and the mediator asks the planner to route around the failed SP. The
  // conjunction can be fetched through either atom, so an alternative
  // exists in the Choice space.
  SourceOf(mediator.get())->fault_injector()->FailNextN(2);

  const Result<Mediator::QueryResult> result =
      mediator->Query("SELECT k FROM R WHERE k = \"odd\" and v < 5");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->replanned);
  EXPECT_EQ(result->rows.size(), 1u);  // {k: "odd"}
  // The answer's statistics sum both runs: the failed run's one retry is
  // there, although the recovery run needed none.
  EXPECT_EQ(result->exec.retries, 1u);

  const Mediator::Stats stats = mediator->StatsSnapshot();
  EXPECT_EQ(stats.fault_tolerance.queries_replanned, 1u);
  EXPECT_EQ(stats.fault_tolerance.queries_ok, 1u);
  EXPECT_EQ(stats.fault_tolerance.queries_failed, 0u);
  EXPECT_EQ(stats.fault_tolerance.retries, 1u);  // folded once
}

TEST_F(MediatorFaultTest, ReplannedAnswerCostsEveryRun) {
  Mediator::Options options;
  options.retry.max_attempts = 2;
  std::unique_ptr<Mediator> mediator = MakeMediator(options);
  // The union's two fetches start together, as calls 0 and 1. Outages on
  // calls 0 and 2 fail the first branch's fetch on both attempts while the
  // second branch's lands, so the failed run has shipped rows before the
  // recovery plan routes around the failed fetch.
  FaultPolicy policy;
  policy.outages.push_back({0, 1});
  policy.outages.push_back({2, 3});
  SourceOf(mediator.get())->set_fault_policy(policy);

  const Result<Mediator::QueryResult> result = mediator->Query(
      "SELECT k, v FROM R WHERE (k = \"odd\" and v < 5) or v >= 8");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->replanned);
  EXPECT_EQ(result->rows.size(), 4u);  // v = 1, 3, 8, 9
  EXPECT_EQ(result->exec.retries, 1u);

  // The recovery run alone, from its own fetches; the true cost adds the
  // failed run's landed fetch on top.
  const SourceDescription& description =
      (*mediator->catalog()->Find("R"))->handle()->description();
  double recovery_cost = 0.0;
  for (const FetchRecord& fetch : result->fetches) {
    recovery_cost +=
        description.k1() + description.k2() * static_cast<double>(fetch.rows);
  }
  EXPECT_GT(recovery_cost, 0.0);
  EXPECT_GT(result->true_cost, recovery_cost);
  EXPECT_EQ(result->exec.source_queries, result->fetches.size() + 1);
}

TEST_F(MediatorFaultTest, QueryAsyncReplansAroundAFailedSubQuery) {
  // ReplanRoutesAroundAFailedSubQuery, submitted through QueryAsync: the
  // same chain runs on the mediator loop, recovery included.
  Mediator::Options options;
  options.retry.max_attempts = 2;
  std::unique_ptr<Mediator> mediator = MakeMediator(options);
  SourceOf(mediator.get())->set_fault_policy(FaultPolicy{});
  SourceOf(mediator.get())->fault_injector()->FailNextN(2);

  std::promise<Result<Mediator::QueryResult>> answer;
  mediator->QueryAsync("SELECT k FROM R WHERE k = \"odd\" and v < 5",
                       [&answer](Result<Mediator::QueryResult> result) {
                         answer.set_value(std::move(result));
                       });
  const Result<Mediator::QueryResult> result = answer.get_future().get();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->replanned);
  EXPECT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(mediator->StatsSnapshot().fault_tolerance.queries_replanned, 1u);
}

TEST_F(MediatorFaultTest, ReplanWorksAcrossPlannerStrategies) {
  // GenModular's avoidance path resolves its EPG Choice spaces directly;
  // same recovery as GenCompact's reduced-CT path.
  Mediator::Options options;
  options.retry.max_attempts = 2;
  std::unique_ptr<Mediator> mediator = MakeMediator(options);
  SourceOf(mediator.get())->set_fault_policy(FaultPolicy{});
  SourceOf(mediator.get())->fault_injector()->FailNextN(2);
  const Result<Mediator::QueryResult> result = mediator->QueryCondition(
      "R", Parse("k = \"odd\" and v < 5"), {"k"}, Strategy::kGenModular);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->replanned);
  EXPECT_EQ(result->rows.size(), 1u);
}

TEST_F(MediatorFaultTest, ReplanGivesUpWhenNoAlternativeAvoidsTheFailure) {
  Mediator::Options options;
  options.retry.max_attempts = 2;
  std::unique_ptr<Mediator> mediator = MakeMediator(options);
  SourceOf(mediator.get())->set_fault_policy(FaultPolicy{});
  SourceOf(mediator.get())->fault_injector()->FailNextN(100);
  // Single-atom query: the only feasible plan IS the failed sub-query.
  const Result<Mediator::QueryResult> result =
      mediator->Query("SELECT k, v FROM R WHERE v < 5");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
}

TEST_F(MediatorFaultTest, RetriesRecoverWithoutReplanOrDegradation) {
  Mediator::Options options;
  options.retry.max_attempts = 4;
  std::unique_ptr<Mediator> mediator = MakeMediator(options);
  SourceOf(mediator.get())->set_fault_policy(FaultPolicy{});
  SourceOf(mediator.get())->fault_injector()->FailNextN(2);
  const Result<Mediator::QueryResult> result =
      mediator->Query("SELECT k, v FROM R WHERE v < 5");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->completeness.complete);
  EXPECT_FALSE(result->replanned);
  EXPECT_EQ(result->rows.size(), 5u);
  EXPECT_EQ(result->exec.retries, 2u);
  EXPECT_EQ(mediator->StatsSnapshot().fault_tolerance.retries, 2u);
}

TEST_F(MediatorFaultTest, StatsSnapshotGathersEveryLayer) {
  Mediator::Options options;
  options.enable_circuit_breaker = true;
  options.retry.max_attempts = 2;
  std::unique_ptr<Mediator> mediator = MakeMediator(options);
  SourceOf(mediator.get())->set_fault_policy(FaultPolicy{});
  SourceOf(mediator.get())->fault_injector()->FailNextN(1);

  ASSERT_TRUE(mediator->Query("SELECT k, v FROM R WHERE v < 5").ok());
  ASSERT_TRUE(mediator->Query("SELECT k, v FROM R WHERE v < 5").ok());

  const Mediator::Stats stats = mediator->StatsSnapshot();
  ASSERT_EQ(stats.sources.size(), 1u);
  EXPECT_EQ(stats.sources[0].name, "R");
  EXPECT_EQ(stats.sources[0].source.queries_answered, 2u);
  EXPECT_EQ(stats.sources[0].source.queries_unavailable, 1u);
  EXPECT_EQ(stats.sources[0].faults.injected_unavailable, 1u);
  EXPECT_TRUE(stats.sources[0].has_breaker);
  EXPECT_EQ(stats.sources[0].breaker_state, CircuitBreaker::State::kClosed);
  EXPECT_GT(stats.sources[0].check_calls, 0u);
  EXPECT_EQ(stats.fault_tolerance.queries_ok, 2u);
  EXPECT_EQ(stats.fault_tolerance.retries, 1u);
  // Second identical query hits the plan cache.
  EXPECT_EQ(stats.plan_cache.hits, 1u);
  EXPECT_GT(stats.interner.live_nodes, 0u);

  const std::string rendered = stats.ToString();
  EXPECT_NE(rendered.find("plan_cache.hits"), std::string::npos);
  EXPECT_NE(rendered.find("source[R].answered"), std::string::npos);
  EXPECT_NE(rendered.find("retries.total"), std::string::npos);
  EXPECT_NE(rendered.find("breaker"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Acceptance: with seeded 20% transient faults, the retry+breaker discipline
// recovers ≥99% of the queries a zero-retry run fails — deterministically.
// ---------------------------------------------------------------------------

class FaultAcceptanceTest : public FaultExecFixture {
 protected:
  static constexpr int kQueries = 400;

  FaultPolicy TransientPolicy(double rate) {
    FaultPolicy policy;
    policy.seed = 20240807;
    policy.transient_error_rate = rate;
    return policy;
  }

  // Runs kQueries single-SP executions and returns (#failed, #source calls).
  std::pair<size_t, uint64_t> RunSweep(const ExecOptions& options,
                                       CircuitBreaker* breaker) {
    size_t failed = 0;
    for (int i = 0; i < kQueries; ++i) {
      ExecOptions exec_options = options;
      exec_options.breaker = breaker;
      Executor executor(&source_, nullptr, exec_options);
      const PlanPtr plan = PlanNode::SourceQuery(
          Parse("v < " + std::to_string(i % 10)), Attrs({"v"}));
      if (!executor.Execute(*plan).ok()) ++failed;
    }
    return {failed, source_.fault_injector()->stats().calls};
  }
};

TEST_F(FaultAcceptanceTest, RetriesRecoverAtLeast99PercentOfFaultedQueries) {
  // Baseline: no retries under 20% transient faults.
  source_.set_fault_policy(TransientPolicy(0.20));
  ExecOptions no_retry;
  no_retry.clock = &clock_;
  const auto [f0, calls0] = RunSweep(no_retry, nullptr);
  // ~80 of 400 expected; the seed pins the exact count.
  EXPECT_GT(f0, 40u);
  EXPECT_LT(f0, 140u);

  // Same fault policy, fresh schedule, retries + breaker on.
  ExecOptions with_retry;
  with_retry.clock = &clock_;
  with_retry.retry.max_attempts = 6;
  CircuitBreakerOptions breaker_options;
  breaker_options.failure_threshold = 8;
  breaker_options.open_duration = microseconds(1000);
  source_.set_fault_policy(TransientPolicy(0.20));
  CircuitBreaker breaker(breaker_options, &clock_);
  const auto [f1, calls1] = RunSweep(with_retry, &breaker);

  // Recovery target: the tolerant run fails at most 1% of what the
  // zero-retry run failed.
  EXPECT_LE(f1 * 100, f0) << "zero-retry failures: " << f0
                          << ", tolerant failures: " << f1;
  EXPECT_GT(calls1, calls0);  // recovery is paid for with extra round trips

  // Determinism: an identical fresh run replays the exact same schedule —
  // same failure count, same number of source calls.
  source_.set_fault_policy(TransientPolicy(0.20));
  CircuitBreaker breaker2(breaker_options, &clock_);
  const auto [f2, calls2] = RunSweep(with_retry, &breaker2);
  EXPECT_EQ(f1, f2);
  EXPECT_EQ(calls1, calls2);
}

TEST_F(FaultAcceptanceTest, ZeroFaultSweepNeverRetriesOrFails) {
  source_.set_fault_policy(TransientPolicy(0.0));
  ExecOptions with_retry;
  with_retry.clock = &clock_;
  with_retry.retry.max_attempts = 6;
  CircuitBreaker breaker({}, &clock_);
  const auto [failed, calls] = RunSweep(with_retry, &breaker);
  EXPECT_EQ(failed, 0u);
  EXPECT_EQ(calls, static_cast<uint64_t>(kQueries));
  EXPECT_EQ(breaker.stats().rejected, 0u);
  EXPECT_EQ(clock_.Now().time_since_epoch().count(), 0);
}

// ---------------------------------------------------------------------------
// P² streaming quantiles and the per-source latency digest.
// ---------------------------------------------------------------------------

TEST(P2QuantileTest, ConstantStreamIsExactAtEveryQuantile) {
  for (const double q : {0.5, 0.9, 0.99}) {
    P2Quantile estimator(q);
    for (int i = 0; i < 50; ++i) estimator.Add(1000.0);
    EXPECT_DOUBLE_EQ(estimator.Value(), 1000.0) << "q=" << q;
    EXPECT_EQ(estimator.count(), 50u);
  }
}

TEST(P2QuantileTest, SmallSamplesAnswerWithExactOrderStatistics) {
  P2Quantile median(0.5);
  EXPECT_DOUBLE_EQ(median.Value(), 0.0);  // empty digest reads zero
  median.Add(30.0);
  median.Add(10.0);
  median.Add(20.0);
  EXPECT_DOUBLE_EQ(median.Value(), 20.0);

  P2Quantile tail(0.99);
  tail.Add(5.0);
  tail.Add(1.0);
  tail.Add(9.0);
  EXPECT_DOUBLE_EQ(tail.Value(), 9.0);
}

TEST(P2QuantileTest, TracksUniformStreamWithinTolerance) {
  // 0..10006 each exactly once, in a fixed scrambled order (7919 is coprime
  // to 10007, so i*7919 mod 10007 is a permutation — deterministic without
  // library randomness).
  P2Quantile p50(0.5);
  P2Quantile p99(0.99);
  constexpr int kN = 10007;
  for (int i = 0; i < kN; ++i) {
    const double x = static_cast<double>((i * 7919) % kN);
    p50.Add(x);
    p99.Add(x);
  }
  EXPECT_NEAR(p50.Value(), 5003.0, 0.05 * kN);
  EXPECT_GT(p99.Value(), 9500.0);
  EXPECT_LE(p99.Value(), static_cast<double>(kN));
}

TEST(LatencyTrackerTest, SnapshotCarriesCountMeanMinMaxAndQuantiles) {
  LatencyTracker tracker;
  EXPECT_EQ(tracker.Quantile(0.99), microseconds(0));
  EXPECT_EQ(tracker.snapshot().count, 0u);

  tracker.Record(microseconds(10));
  tracker.Record(microseconds(30));
  tracker.Record(microseconds(20));
  const LatencyTracker::Snapshot snap = tracker.snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.mean, microseconds(20));
  EXPECT_EQ(snap.min, microseconds(10));
  EXPECT_EQ(snap.max, microseconds(30));
  EXPECT_EQ(snap.p50, microseconds(20));  // exact below five samples
  EXPECT_EQ(snap.p99, microseconds(30));
}

TEST(LatencyTrackerTest, QuantileAnswersFromTheNearestTrackedEstimator) {
  // Tracked set is {0.5, 0.9, 0.95, 0.99}: 0.93 snaps to 0.95 and 0.97 to
  // 0.95 as well — identical estimator, identical answer.
  LatencyTracker tracker;
  for (int i = 1; i <= 1000; ++i) tracker.Record(microseconds(i));
  EXPECT_EQ(tracker.Quantile(0.93), tracker.Quantile(0.95));
  EXPECT_EQ(tracker.Quantile(0.97), tracker.Quantile(0.95));
  // And the tracked points themselves order sensibly on a uniform stream.
  EXPECT_LT(tracker.Quantile(0.5), tracker.Quantile(0.99));
}

TEST(LatencyTrackerTest, ConcurrentRecordsStayConsistent) {
  LatencyTracker tracker;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&tracker] {
      for (int i = 0; i < 500; ++i) tracker.Record(microseconds(100));
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(tracker.count(), 4000u);
  const LatencyTracker::Snapshot snap = tracker.snapshot();
  EXPECT_EQ(snap.mean, microseconds(100));
  EXPECT_EQ(snap.min, microseconds(100));
  EXPECT_EQ(snap.max, microseconds(100));
  EXPECT_EQ(tracker.Quantile(0.5), microseconds(100));
}

// ---------------------------------------------------------------------------
// Hedged requests. Determinism recipe: the source charges a simulated round
// trip and the digest is warmed to a known quantile, all on a FakeClock, so
// the hedge timer fires at an exact virtual instant and the race is decided
// by wire times alone. Races where the hedge must meet a different source
// than the primary did (a faster answer, a scripted fault) drive the
// Executor on a SimulatedEventLoop and change the source once the primary
// is on the wire.
// ---------------------------------------------------------------------------

class HedgeFixture : public FaultExecFixture {
 protected:
  /// Seeds the digest with identical samples so every quantile reads
  /// `value_us` exactly.
  void WarmDigest(int64_t value_us, int samples = 50) {
    for (int i = 0; i < samples; ++i) {
      tracker_.Record(microseconds(value_us));
    }
  }

  ExecOptions HedgeOptions(Clock* clock) {
    ExecOptions options;
    options.clock = clock;
    options.latency = &tracker_;
    options.hedge.enabled = true;
    options.hedge.quantile = 0.99;
    options.hedge.min_samples = 20;
    return options;
  }

  /// Starts `plan` on the simulated loop and steps once: the primary's
  /// round trip is on the (virtual) wire when this returns.
  void Launch(Executor* executor, const PlanPtr& plan) {
    executor->ExecuteAsync(
        plan, [this](Result<RowSet> rows) { answer_ = std::move(rows); });
    ASSERT_TRUE(sim_.Step());
    ASSERT_EQ(source_.stats().queries_received, 1u);
  }

  LatencyTracker tracker_;
  SimulatedEventLoop sim_;
  std::optional<Result<RowSet>> answer_;
};

TEST_F(HedgeFixture, HedgeFiresExactlyAtTheDigestQuantile) {
  WarmDigest(1000);
  source_.set_simulated_latency(microseconds(5000));
  Executor executor(&source_, nullptr, HedgeOptions(sim_.clock()),
                    sim_.loop());
  const PlanPtr plan = PlanNode::SourceQuery(Parse("v < 3"), Attrs({"v"}));
  const auto t0 = sim_.clock()->Now();
  Launch(&executor, plan);
  // The primary drew its 5ms wire time; the hedge will meet a fast source.
  source_.set_simulated_latency(microseconds(100));

  // The hedge launches at the digest's p99 — not a tick earlier.
  sim_.AdvanceBy(microseconds(999));
  EXPECT_EQ(source_.stats().queries_received, 1u);
  sim_.AdvanceBy(microseconds(1));
  EXPECT_EQ(source_.stats().queries_received, 2u);

  sim_.RunUntilIdle();
  ASSERT_TRUE(answer_.has_value());
  ASSERT_TRUE(answer_->ok()) << answer_->status().ToString();
  EXPECT_EQ((*answer_)->size(), 3u);
  // Answered by the hedge at 1000 + 100us; the primary's wire wait was
  // abandoned, so virtual time never reached its 5ms.
  EXPECT_EQ(sim_.clock()->Now() - t0, microseconds(1100));

  const ExecStats stats = executor.stats();
  EXPECT_EQ(stats.hedges_launched, 1u);
  EXPECT_EQ(stats.hedges_won, 1u);
  EXPECT_EQ(stats.hedges_cancelled, 0u);  // the primary was on the wire
  EXPECT_EQ(stats.source_queries, 1u);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.failed_sub_queries, 0u);
  EXPECT_EQ(tracker_.count(), 51u);  // the winner fed the digest
  // The abandoned primary was never answered and left the wire.
  EXPECT_EQ(source_.stats().queries_answered, 1u);
  EXPECT_EQ(source_.inflight(), 0u);
}

TEST_F(HedgeFixture, HedgingStaysDisarmedBelowMinSamples) {
  WarmDigest(1000, /*samples=*/19);  // one short of min_samples
  Executor executor(&source_, nullptr, HedgeOptions(&clock_));
  const PlanPtr plan = PlanNode::SourceQuery(Parse("v < 3"), Attrs({"v"}));

  ASSERT_TRUE(executor.Execute(*plan).ok());
  EXPECT_EQ(executor.stats().hedges_launched, 0u);
  // Disarmed hedging arms no timer: against an instant source no virtual
  // time passed at all.
  EXPECT_EQ(clock_.Now().time_since_epoch().count(), 0);
  EXPECT_EQ(source_.stats().queries_received, 1u);

  // The successful fetch was the 20th digest sample: armed now, and a 5ms
  // source outlives the ~1ms hedge point.
  ASSERT_EQ(tracker_.count(), 20u);
  source_.set_simulated_latency(microseconds(5000));
  ASSERT_TRUE(executor.Execute(*plan).ok());
  EXPECT_EQ(executor.stats().hedges_launched, 1u);
  EXPECT_GT(clock_.Now().time_since_epoch().count(), 0);
}

TEST_F(HedgeFixture, HedgesDrawFromTheRetryTokenBudget) {
  WarmDigest(1000);
  source_.set_simulated_latency(microseconds(5000));
  ExecOptions options = HedgeOptions(&clock_);
  options.retry.retry_budget = 0;  // no tokens: hedging is priced out
  Executor executor(&source_, nullptr, options);
  const PlanPtr plan = PlanNode::SourceQuery(Parse("v < 3"), Attrs({"v"}));

  const Result<RowSet> rows = executor.Execute(*plan);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 3u);
  // The hedge point passed at 1ms with no token to spend: the primary
  // answered alone, at its own 5ms.
  EXPECT_EQ(clock_.Now().time_since_epoch(), microseconds(5000));
  EXPECT_EQ(executor.stats().hedges_launched, 0u);
  EXPECT_EQ(source_.stats().queries_received, 1u);
}

TEST_F(HedgeFixture, HedgesAreSuppressedWhileTheBreakerIsHalfOpen) {
  WarmDigest(1000);
  CircuitBreakerOptions breaker_options;
  breaker_options.failure_threshold = 1;
  breaker_options.open_duration = microseconds(500);
  breaker_options.half_open_probes = 2;
  CircuitBreaker breaker(breaker_options, &clock_);
  ASSERT_TRUE(breaker.Allow());
  breaker.OnFailure();  // trips open
  clock_.Advance(microseconds(501));
  ASSERT_TRUE(breaker.Allow());  // consume one probe slot: now half-open
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);

  source_.set_simulated_latency(microseconds(5000));
  ExecOptions options = HedgeOptions(&clock_);
  options.breaker = &breaker;
  Executor executor(&source_, nullptr, options);
  const PlanPtr plan = PlanNode::SourceQuery(Parse("v < 3"), Attrs({"v"}));

  const Result<RowSet> rows = executor.Execute(*plan);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  // Probes must measure the source, not the race: no hedge launched at the
  // hedge point, the primary ran as the second half-open probe and closed
  // the breaker.
  EXPECT_EQ(executor.stats().hedges_launched, 0u);
  EXPECT_EQ(source_.stats().queries_received, 1u);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.OnSuccess();  // pair the manually consumed probe
}

TEST_F(HedgeFixture, FailedHedgeFallsBackToThePrimary) {
  WarmDigest(1000);
  source_.set_simulated_latency(microseconds(5000));
  Executor executor(&source_, nullptr, HedgeOptions(sim_.clock()),
                    sim_.loop());
  const PlanPtr plan = PlanNode::SourceQuery(Parse("v < 3"), Attrs({"v"}));
  Launch(&executor, plan);
  // The primary is on the wire, so the hedge is the next source contact —
  // and eats the scripted fault.
  source_.fault_injector()->FailNextN(1);
  sim_.RunUntilIdle();

  ASSERT_TRUE(answer_.has_value());
  ASSERT_TRUE(answer_->ok()) << answer_->status().ToString();
  EXPECT_EQ((*answer_)->size(), 3u);
  const ExecStats stats = executor.stats();
  EXPECT_EQ(stats.hedges_launched, 1u);
  EXPECT_EQ(stats.hedges_won, 0u);
  EXPECT_EQ(stats.hedges_cancelled, 0u);
  EXPECT_EQ(stats.failed_sub_queries, 0u);
  EXPECT_EQ(stats.source_queries, 1u);
  EXPECT_EQ(source_.stats().queries_received, 2u);  // failed hedge + primary
}

TEST_F(HedgeFixture, WinningHedgeNeverPoisonsTheDedupMap) {
  WarmDigest(1000);
  source_.set_simulated_latency(microseconds(5000));
  Executor executor(&source_, nullptr, HedgeOptions(sim_.clock()),
                    sim_.loop());
  // Two identical SP children: the second must join the first's (hedged)
  // fetch, and the abandoned primary must leave no failure residue behind.
  const PlanPtr plan = PlanNode::UnionOf(
      {PlanNode::SourceQuery(Parse("v < 3"), Attrs({"v"})),
       PlanNode::SourceQuery(Parse("v < 3"), Attrs({"v"}))});
  Launch(&executor, plan);
  source_.set_simulated_latency(microseconds(100));  // the hedge outruns it
  sim_.RunUntilIdle();

  ASSERT_TRUE(answer_.has_value());
  ASSERT_TRUE(answer_->ok()) << answer_->status().ToString();
  EXPECT_EQ((*answer_)->size(), 3u);
  const ExecStats stats = executor.stats();
  EXPECT_EQ(stats.source_queries, 1u);  // dedup held across the race
  EXPECT_EQ(stats.hedges_launched, 1u);
  EXPECT_EQ(stats.hedges_won, 1u);
  EXPECT_EQ(stats.failed_sub_queries, 0u);
  EXPECT_TRUE(executor.failed_sub_query_keys().empty());
  EXPECT_TRUE(executor.dropped_sub_queries().empty());
  // Primary + hedge reached the source; only the hedge was answered.
  EXPECT_EQ(source_.stats().queries_received, 2u);
  EXPECT_EQ(source_.stats().queries_answered, 1u);
  EXPECT_EQ(source_.inflight(), 0u);
}

TEST_F(HedgeFixture, LoserDueInTheWinnersBatchFinishesNormally) {
  WarmDigest(1000);
  source_.set_simulated_latency(microseconds(5000));
  Executor executor(&source_, nullptr, HedgeOptions(sim_.clock()),
                    sim_.loop());
  const PlanPtr plan = PlanNode::SourceQuery(Parse("v < 3"), Attrs({"v"}));
  Launch(&executor, plan);
  // The hedge goes out at 1000us with a 4000us wire time: both wire timers
  // come due at 5000us, in one batch, and the primary (armed first) fires
  // first and wins.
  source_.set_simulated_latency(microseconds(4000));
  sim_.RunUntilIdle();

  ASSERT_TRUE(answer_.has_value());
  ASSERT_TRUE(answer_->ok()) << answer_->status().ToString();
  EXPECT_EQ(executor.stats().hedges_launched, 1u);
  EXPECT_EQ(executor.stats().hedges_won, 0u);
  // The loser's timer was already due, so it could not be cancelled: it was
  // answered, not abandoned, and the in-flight gauge is balanced.
  EXPECT_EQ(source_.stats().queries_answered, 2u);
  EXPECT_EQ(source_.inflight(), 0u);
}

TEST_F(HedgeFixture, ConcurrentHedgedExecutionsAreRaceFree) {
  // Real clock, real waits: the source answers in ~200us while the digest
  // promises 50us, so fetches genuinely race their hedges. Eight client
  // threads, each pumping its own loop, share the scan pool, the digest,
  // and the source — the TSan surface.
  for (int i = 0; i < 100; ++i) tracker_.Record(microseconds(50));
  source_.set_simulated_latency(microseconds(200));
  ThreadPool pool(4);
  std::atomic<uint64_t> total_hedges{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 8; ++t) {
    clients.emplace_back([this, &pool, &total_hedges] {
      for (int i = 0; i < 10; ++i) {
        ExecOptions options;  // real clock
        options.latency = &tracker_;
        options.hedge.enabled = true;
        options.hedge.quantile = 0.5;
        options.hedge.min_samples = 10;
        Executor executor(&source_, &pool, options);
        const PlanPtr plan = PlanNode::UnionOf(
            {PlanNode::SourceQuery(Parse("v < 3"), Attrs({"v"})),
             PlanNode::SourceQuery(Parse("v >= 7"), Attrs({"v"}))});
        const Result<RowSet> rows = executor.Execute(*plan);
        EXPECT_TRUE(rows.ok()) << rows.status().ToString();
        if (rows.ok()) {
          EXPECT_EQ(rows->size(), 6u);
        }
        const ExecStats stats = executor.stats();
        EXPECT_LE(stats.hedges_won, stats.hedges_launched);
        total_hedges.fetch_add(stats.hedges_launched,
                               std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  // With a 50us digest against a 200us source, hedges must actually fire.
  EXPECT_GT(total_hedges.load(), 0u);
}

// ---------------------------------------------------------------------------
// Mediator-level resilience: load shedding, breaker-aware cost penalties,
// end-to-end hedging, and snapshot rates.
// ---------------------------------------------------------------------------

TEST_F(MediatorFaultTest, LoadSheddingFailsFastWhileTheBreakerIsOpen) {
  Mediator::Options options;
  options.enable_circuit_breaker = true;
  options.breaker.failure_threshold = 2;
  options.breaker.open_duration = microseconds(1000);
  std::unique_ptr<Mediator> mediator = MakeMediator(options);
  SourceOf(mediator.get())->set_fault_policy(FaultPolicy{});
  SourceOf(mediator.get())->fault_injector()->FailNextN(2);

  const char* kSql = "SELECT k, v FROM R WHERE v < 5";
  EXPECT_FALSE(mediator->Query(kSql).ok());
  EXPECT_FALSE(mediator->Query(kSql).ok());  // breaker is open now

  const size_t received = SourceOf(mediator.get())->stats().queries_received;
  const Result<Mediator::QueryResult> shed = mediator->Query(kSql);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(shed.status().message().find("shed"), std::string::npos);
  // Shed before planning: not one more byte reached the source.
  EXPECT_EQ(SourceOf(mediator.get())->stats().queries_received, received);

  Mediator::Stats stats = mediator->StatsSnapshot();
  EXPECT_EQ(stats.fault_tolerance.queries_shed, 1u);
  EXPECT_EQ(stats.fault_tolerance.queries_failed, 2u);  // shed ≠ failed

  // Once the open window expires the effective state is half-open, so the
  // query is NOT shed: the probe goes through, succeeds, and heals the
  // breaker. EffectiveState is what keeps shedding from being forever.
  clock_.Advance(microseconds(1001));
  const Result<Mediator::QueryResult> recovered = mediator->Query(kSql);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->rows.size(), 5u);
  stats = mediator->StatsSnapshot();
  EXPECT_EQ(stats.fault_tolerance.queries_shed, 1u);
  EXPECT_EQ(stats.sources[0].breaker_state, CircuitBreaker::State::kClosed);

  const std::string rendered = stats.ToString();
  EXPECT_NE(rendered.find("queries.shed"), std::string::npos);
}

TEST_F(MediatorFaultTest, BreakerAwareCostsInflateK1AndBypassTheCache) {
  Mediator::Options options;
  options.enable_circuit_breaker = true;
  options.breaker.failure_threshold = 2;
  options.breaker.open_duration = microseconds(1000);
  std::unique_ptr<Mediator> mediator = MakeMediator(options);

  const char* kHealthy = "SELECT k, v FROM R WHERE v < 5";
  const char* kDegraded = "SELECT k, v FROM R WHERE v >= 7";

  // Healthy: plans flow through the cache normally.
  ASSERT_TRUE(mediator->Query(kHealthy).ok());
  ASSERT_TRUE(mediator->Query(kHealthy).ok());
  Mediator::Stats stats = mediator->StatsSnapshot();
  EXPECT_EQ(stats.plan_cache.misses, 1u);
  EXPECT_EQ(stats.plan_cache.hits, 1u);
  EXPECT_EQ(stats.sources[0].cost_penalty, 1.0);
  EXPECT_EQ(stats.plan_cache.per_shard.size(), stats.plan_cache.shards);

  // Trip the breaker (two hard failures; the plans were still cache hits).
  SourceOf(mediator.get())->set_fault_policy(FaultPolicy{});
  SourceOf(mediator.get())->fault_injector()->FailNextN(2);
  EXPECT_FALSE(mediator->Query(kHealthy).ok());
  EXPECT_FALSE(mediator->Query(kHealthy).ok());

  // Open breaker: the query is shed before planning, so it touches no
  // cache entry. The source's k1 is inflated ×8, which is what a join's
  // leaf costs see.
  EXPECT_FALSE(mediator->Query(kDegraded).ok());
  stats = mediator->StatsSnapshot();
  EXPECT_EQ(stats.fault_tolerance.queries_shed, 1u);
  EXPECT_EQ(stats.plan_cache.misses, 1u);
  EXPECT_EQ(stats.plan_cache.hits, 3u);
  EXPECT_EQ(stats.plan_cache.size, 1u);
  EXPECT_EQ(stats.sources[0].cost_penalty, 8.0);
  CatalogEntry* entry = *mediator->catalog()->Find("R");
  EXPECT_EQ(entry->RefreshCostPenalty(), 8.0);
  const CostModel& model = entry->handle()->cost_model();
  EXPECT_DOUBLE_EQ(model.effective_k1(), 8.0 * model.k1());

  // Window expires → effectively half-open (×3): the next query is the
  // probe, not shed. Its plan is costed at ×3 and bypasses the cache; the
  // probe succeeds and closes the breaker, and the snapshot, which reads
  // the breaker's state, is back at 1.
  clock_.Advance(microseconds(1001));
  stats = mediator->StatsSnapshot();
  EXPECT_EQ(stats.sources[0].cost_penalty, 3.0);
  EXPECT_NE(stats.ToString().find("source[R].cost_penalty  3.0x"),
            std::string::npos);
  ASSERT_TRUE(mediator->Query(kDegraded).ok());
  EXPECT_DOUBLE_EQ(model.effective_k1(), 3.0 * model.k1());
  stats = mediator->StatsSnapshot();
  EXPECT_EQ(stats.plan_cache.misses, 1u);  // still bypassed while penalized
  EXPECT_EQ(stats.plan_cache.size, 1u);
  EXPECT_EQ(stats.sources[0].breaker_state, CircuitBreaker::State::kClosed);
  EXPECT_EQ(stats.sources[0].cost_penalty, 1.0);

  // Healed: the penalty refreshes to 1 and the same query is cacheable
  // again — a miss+insert, then a hit.
  ASSERT_TRUE(mediator->Query(kDegraded).ok());
  ASSERT_TRUE(mediator->Query(kDegraded).ok());
  stats = mediator->StatsSnapshot();
  EXPECT_EQ(stats.sources[0].cost_penalty, 1.0);
  EXPECT_EQ(stats.plan_cache.misses, 2u);
  EXPECT_EQ(stats.plan_cache.hits, 4u);
  EXPECT_EQ(stats.plan_cache.size, 2u);
}

TEST_F(MediatorFaultTest, MediatorHedgesSlowFetchesEndToEnd) {
  Mediator::Options options;
  options.hedge.enabled = true;
  options.hedge.min_samples = 20;
  std::unique_ptr<Mediator> mediator = MakeMediator(options);

  // Warm the per-source digest by hand (to ~100us) and make the source
  // really take 10ms: every fetch blows past the digest's p99 and hedges.
  Result<CatalogEntry*> entry = mediator->catalog()->Find("R");
  ASSERT_TRUE(entry.ok());
  ASSERT_NE((*entry)->latency_tracker(), nullptr);
  for (int i = 0; i < 50; ++i) {
    (*entry)->latency_tracker()->Record(microseconds(100));
  }
  SourceOf(mediator.get())->set_simulated_latency(microseconds(10000));

  const Result<Mediator::QueryResult> result =
      mediator->Query("SELECT k, v FROM R WHERE v < 5");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 5u);
  EXPECT_EQ(result->exec.hedges_launched, 1u);
  // A first-completion race: when both calls take 10ms the earlier-started
  // primary wins, and the hedge is abandoned on the wire.
  EXPECT_EQ(result->exec.hedges_won, 0u);

  const Mediator::Stats stats = mediator->StatsSnapshot();
  EXPECT_EQ(stats.fault_tolerance.hedges_launched, 1u);
  EXPECT_EQ(stats.fault_tolerance.hedges_won, 0u);
  EXPECT_GT(stats.sources[0].latency.count, 50u);
  EXPECT_NE(stats.ToString().find("latency"), std::string::npos);
}

TEST_F(MediatorFaultTest, DiffSinceTurnsCounterDeltasIntoRates) {
  std::unique_ptr<Mediator> mediator = MakeMediator({});
  const Mediator::Stats before = mediator->StatsSnapshot();

  const char* kOk = "SELECT k, v FROM R WHERE v < 5";
  ASSERT_TRUE(mediator->Query(kOk).ok());
  ASSERT_TRUE(mediator->Query(kOk).ok());  // cache hit
  SourceOf(mediator.get())->set_fault_policy(FaultPolicy{});
  SourceOf(mediator.get())->fault_injector()->FailNextN(1);
  EXPECT_FALSE(mediator->Query("SELECT k, v FROM R WHERE v >= 7").ok());

  clock_.Advance(microseconds(2000000));  // exactly 2 seconds
  const Mediator::Stats after = mediator->StatsSnapshot();
  const Mediator::Stats::Rates rates = after.DiffSince(before);
  EXPECT_DOUBLE_EQ(rates.interval_seconds, 2.0);
  EXPECT_DOUBLE_EQ(rates.qps, 1.5);  // 3 completed / 2s
  EXPECT_NEAR(rates.success_rate, 2.0 / 3.0, 1e-9);
  EXPECT_DOUBLE_EQ(rates.shed_rate, 0.0);
  EXPECT_DOUBLE_EQ(rates.hedge_rate, 0.0);
  // Interval lookups: miss(v<5), hit(v<5), miss(v>=7) → 1 hit / 3 lookups.
  EXPECT_NEAR(rates.cache_hit_rate, 1.0 / 3.0, 1e-9);
  EXPECT_NE(rates.ToString().find("rates.qps"), std::string::npos);

  // Same snapshot diffed against itself: a zero interval yields zero rates
  // instead of dividing by zero.
  const Mediator::Stats::Rates zero = after.DiffSince(after);
  EXPECT_DOUBLE_EQ(zero.interval_seconds, 0.0);
  EXPECT_DOUBLE_EQ(zero.qps, 0.0);
}

TEST_F(MediatorFaultTest, DefaultMediatorReportsPerSourceLatency) {
  // Every source owns a latency digest from registration, so a mediator
  // with default options reports per-source percentiles after one query.
  std::unique_ptr<Mediator> mediator = MakeMediator({});
  SourceOf(mediator.get())->set_simulated_latency(microseconds(250));
  ASSERT_TRUE(mediator->Query("SELECT k, v FROM R WHERE v < 5").ok());
  const Mediator::Stats stats = mediator->StatsSnapshot();
  ASSERT_EQ(stats.sources.size(), 1u);
  EXPECT_EQ(stats.sources[0].latency.count, 1u);
  EXPECT_EQ(stats.sources[0].latency.p50, microseconds(250));
  EXPECT_EQ(stats.sources[0].latency.p99, microseconds(250));
  const std::string rendered = stats.ToString();
  EXPECT_NE(rendered.find("source[R].latency       n=1 mean=250us p50=250us "
                          "p99=250us"),
            std::string::npos)
      << rendered;
}

TEST_F(MediatorFaultTest, RecoveryRunsShareTheQueryDeadline) {
  // The query's first execution uses up its whole budget: its one fetch is
  // a stuck call that holds the caller 12ms against a 10ms deadline, and
  // the retry's backoff would overshoot it. A recovery plan through the
  // other atom would find the source healthy, but it would start past the
  // deadline, so none starts: the query fails with the deadline and the
  // source sees no recovery fetch.
  Mediator::Options options;
  options.retry.max_attempts = 2;  // arms the avoid-set re-plan
  options.query_deadline = microseconds(10000);
  std::unique_ptr<Mediator> mediator = MakeMediator(options);
  FaultPolicy policy;
  policy.seed = 3;  // under this seed call 0 is stuck and call 1 answers
  policy.stuck_call_rate = 0.5;
  policy.stuck_penalty = microseconds(12000);
  SourceOf(mediator.get())->set_fault_policy(policy);

  const auto start = clock_.Now();
  const Result<Mediator::QueryResult> result =
      mediator->Query("SELECT k FROM R WHERE k = \"odd\" and v < 5");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status().ToString();
  EXPECT_EQ(clock_.Now() - start, microseconds(12000));
  Source* source = SourceOf(mediator.get());
  EXPECT_EQ(source->stats().queries_received, 1u);
  EXPECT_EQ(source->fault_injector()->stats().injected_timeouts, 1u);
  const Mediator::Stats stats = mediator->StatsSnapshot();
  EXPECT_EQ(stats.fault_tolerance.queries_replanned, 0u);
  EXPECT_EQ(stats.fault_tolerance.queries_failed, 1u);
}

TEST_F(MediatorFaultTest, NoRecoveryRunAfterTheBackoffOvershootsTheDeadline) {
  // The first fetch fails fast twice: the first 8ms backoff fits the 10ms
  // budget, the second would end at 16ms, so the executor gives up at 8ms
  // with kDeadlineExceeded before the deadline has passed. A recovery plan
  // through the other atom would find the source healthy, but its 6ms round
  // trip would answer at 14ms, past the budget; none starts.
  Mediator::Options options;
  options.retry.max_attempts = 3;  // arms the avoid-set re-plan
  options.retry.backoff.base = microseconds(8000);
  options.retry.backoff.cap = microseconds(8000);
  options.query_deadline = microseconds(10000);
  std::unique_ptr<Mediator> mediator = MakeMediator(options);
  Source* source = SourceOf(mediator.get());
  source->set_simulated_latency(microseconds(6000));
  source->set_fault_policy(FaultPolicy{});
  source->fault_injector()->FailNextN(2);

  const auto start = clock_.Now();
  const Result<Mediator::QueryResult> result =
      mediator->Query("SELECT k FROM R WHERE k = \"odd\" and v < 5");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status().ToString();
  EXPECT_EQ(clock_.Now() - start, microseconds(8000));
  EXPECT_EQ(source->stats().queries_received, 2u);
  const Mediator::Stats stats = mediator->StatsSnapshot();
  EXPECT_EQ(stats.fault_tolerance.retries, 1u);
  EXPECT_EQ(stats.fault_tolerance.deadlines_exceeded, 1u);
  EXPECT_EQ(stats.fault_tolerance.queries_replanned, 0u);
  EXPECT_EQ(stats.fault_tolerance.queries_failed, 1u);
}

TEST_F(MediatorFaultTest, RecoveryFollowsRetriesAndTheBreaker) {
  // One scripted fault schedule over retries {off, on} x breaker {off, on}:
  // retries arm the avoid-set re-plan, the breaker arms load shedding and
  // the k1 health penalty, and with neither a fault fails its query as-is.
  const char* kConjunction = "SELECT k FROM R WHERE k = \"odd\" and v < 5";
  const char* kSingleAtom = "SELECT k, v FROM R WHERE v < 5";
  const char* kProbe = "SELECT k, v FROM R WHERE v >= 7";
  for (const bool retries : {false, true}) {
    for (const bool breaker : {false, true}) {
      SCOPED_TRACE(std::string("retries ") + (retries ? "on" : "off") +
                   ", breaker " + (breaker ? "on" : "off"));
      Mediator::Options options;
      if (retries) options.retry.max_attempts = 2;
      options.enable_circuit_breaker = breaker;
      options.breaker.failure_threshold = 3;
      options.breaker.open_duration = microseconds(1000);
      std::unique_ptr<Mediator> mediator = MakeMediator(options);
      Source* source = SourceOf(mediator.get());

      // A blip: the first two calls fail. The conjunction can be fetched
      // through either atom.
      source->set_fault_policy(FaultPolicy{});
      source->fault_injector()->FailNextN(2);
      const Result<Mediator::QueryResult> blip = mediator->Query(kConjunction);
      if (retries) {
        // Both attempts of the first fetch fail; the re-plan fetches
        // through the other atom.
        ASSERT_TRUE(blip.ok()) << blip.status().ToString();
        EXPECT_TRUE(blip->replanned);
        EXPECT_EQ(blip->rows.size(), 1u);
        EXPECT_EQ(source->stats().queries_received, 3u);
      } else {
        // The first fault is final, and it comes back as-is.
        ASSERT_FALSE(blip.ok());
        EXPECT_EQ(blip.status().code(), StatusCode::kUnavailable);
        EXPECT_NE(blip.status().message().find("scripted failure"),
                  std::string::npos);
        EXPECT_EQ(source->stats().queries_received, 1u);
      }

      // An outage: four queries with no alternative plan all fail. A
      // breaker opens on the third consecutive failure and sheds what
      // follows before planning.
      FaultPolicy down;
      down.outages.push_back({0, 1000000});
      source->set_fault_policy(down);
      for (int i = 0; i < 4; ++i) {
        const Result<Mediator::QueryResult> failed =
            mediator->Query(kSingleAtom);
        ASSERT_FALSE(failed.ok());
        EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
      }

      // Healed, and the open window has passed: a breaker is effectively
      // half-open, so a new query is a probe, planned under the x3 penalty;
      // its success closes the breaker.
      source->set_fault_policy(FaultPolicy{});
      clock_.Advance(microseconds(1001));
      const double penalty = breaker ? 3.0 : 1.0;
      EXPECT_EQ(mediator->StatsSnapshot().sources[0].cost_penalty, penalty);
      const Result<Mediator::QueryResult> probe = mediator->Query(kProbe);
      ASSERT_TRUE(probe.ok()) << probe.status().ToString();
      EXPECT_EQ(probe->rows.size(), 3u);
      const CostModel& model =
          (*mediator->catalog()->Find("R"))->handle()->cost_model();
      EXPECT_DOUBLE_EQ(model.effective_k1(), penalty * model.k1());

      const Mediator::Stats stats = mediator->StatsSnapshot();
      EXPECT_EQ(stats.fault_tolerance.queries_replanned > 0, retries);
      EXPECT_EQ(stats.fault_tolerance.queries_shed > 0, breaker);
      EXPECT_EQ(stats.sources[0].cost_penalty, 1.0);
      EXPECT_EQ(stats.fault_tolerance.queries_failed,
                4u + (retries ? 0u : 1u) -
                    stats.fault_tolerance.queries_shed);
    }
  }
}

// ---------------------------------------------------------------------------
// Cross-source join failover: the non-driving side falls over to a
// schema-compatible replica when the configured source is down.
// ---------------------------------------------------------------------------

class JoinFailoverTest : public ::testing::Test {
 protected:
  static constexpr const char* kLeftSsdl = R"(
    source L(k: string, v: int) {
      rule f -> v < $int | k = $string;
      export f : {k, v};
    })";

  // R1 and R2 export the same schema (k: string, w: int): replicas. The
  // recursive klist rule accepts the bound key lists a bind-join pushes.
  static std::string RightSsdl(const std::string& name) {
    return "source " + name + R"((k: string, w: int) {
      rule klist -> k = $string or k = $string
                  | k = $string or klist;
      rule f -> k = $string | klist | ( klist );
      export f : {k, w};
    })";
  }

  std::unique_ptr<Mediator> MakeMediator(Mediator::Options options) {
    options.clock = &clock_;
    auto mediator = std::make_unique<Mediator>(options);

    Result<SourceDescription> left = ParseSsdl(kLeftSsdl);
    EXPECT_TRUE(left.ok()) << left.status().ToString();
    auto left_table = std::make_unique<Table>("L", left->schema());
    for (const auto& [k, v] : std::vector<std::pair<const char*, int64_t>>{
             {"a", 1}, {"b", 2}, {"c", 3}}) {
      EXPECT_TRUE(
          left_table->AppendValues({Value::String(k), Value::Int(v)}).ok());
    }
    EXPECT_TRUE(mediator
                    ->RegisterSource(std::move(left).value(),
                                     std::move(left_table))
                    .ok());

    for (const char* name : {"R1", "R2"}) {
      Result<SourceDescription> right = ParseSsdl(RightSsdl(name));
      EXPECT_TRUE(right.ok()) << right.status().ToString();
      auto right_table = std::make_unique<Table>(name, right->schema());
      for (const auto& [k, w] : std::vector<std::pair<const char*, int64_t>>{
               {"a", 10}, {"b", 20}}) {
        EXPECT_TRUE(
            right_table->AppendValues({Value::String(k), Value::Int(w)}).ok());
      }
      EXPECT_TRUE(mediator
                      ->RegisterSource(std::move(right).value(),
                                       std::move(right_table))
                      .ok());
    }
    return mediator;
  }

  Source* SourceOf(Mediator* mediator, const std::string& name) {
    Result<CatalogEntry*> entry = mediator->catalog()->Find(name);
    EXPECT_TRUE(entry.ok());
    return (*entry)->source();
  }

  static void TakeDown(Source* source) {
    FaultPolicy outage;
    outage.outages.push_back({0, 1000000});
    source->set_fault_policy(outage);
  }

  static constexpr const char* kJoinSql =
      "SELECT L.k, L.v, R1.w FROM L JOIN R1 ON L.k = R1.k "
      "WHERE L.v < 100";

  FakeClock clock_;
};

TEST_F(JoinFailoverTest, RightSideFallsOverToTheReplica) {
  Mediator::Options options;
  options.join_failover = true;
  std::unique_ptr<Mediator> mediator = MakeMediator(options);
  TakeDown(SourceOf(mediator.get(), "R1"));

  const Result<Mediator::QueryResult> result = mediator->Query(kJoinSql);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 2u);  // keys a, b join; c has no match

  const Mediator::Stats stats = mediator->StatsSnapshot();
  EXPECT_EQ(stats.fault_tolerance.join_failovers, 1u);
  // R1 was contacted (and failed); R2 actually answered.
  EXPECT_GT(SourceOf(mediator.get(), "R1")->stats().queries_unavailable, 0u);
  EXPECT_GT(SourceOf(mediator.get(), "R2")->stats().queries_answered, 0u);
  EXPECT_NE(stats.ToString().find("join.failovers"), std::string::npos);
}

TEST_F(JoinFailoverTest, WithoutFailoverTheJoinFailsOutright) {
  std::unique_ptr<Mediator> mediator = MakeMediator({});  // failover off
  TakeDown(SourceOf(mediator.get(), "R1"));
  const Result<Mediator::QueryResult> result = mediator->Query(kJoinSql);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(mediator->StatsSnapshot().fault_tolerance.join_failovers, 0u);
}

TEST_F(JoinFailoverTest, RetriesArmTheJoinReplan) {
  // R1 answers only bound key lists, so it is reached through a bind edge
  // from L; its first two calls fail. With retries the batch fails on both
  // attempts, the replan enumerates again (R1 never had an independent
  // fetch to avoid, so the tree is the same) and the next round answers.
  // Without retries the first fault fails the join.
  for (const bool retries : {false, true}) {
    SCOPED_TRACE(retries ? "retries on" : "retries off");
    Mediator::Options options;
    if (retries) options.retry.max_attempts = 2;
    std::unique_ptr<Mediator> mediator = MakeMediator(options);
    Source* r1 = SourceOf(mediator.get(), "R1");
    FaultPolicy blip;
    blip.outages.push_back({0, 2});
    r1->set_fault_policy(blip);

    const Result<Mediator::QueryResult> result = mediator->Query(kJoinSql);
    const Mediator::Stats stats = mediator->StatsSnapshot();
    if (retries) {
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_TRUE(result->replanned);
      EXPECT_EQ(result->rows.size(), 2u);
      EXPECT_EQ(stats.join.replans, 1u);
      EXPECT_EQ(stats.fault_tolerance.queries_replanned, 1u);
      EXPECT_EQ(r1->fault_injector()->stats().calls, 3u);
    } else {
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
      EXPECT_EQ(stats.fault_tolerance.queries_replanned, 0u);
      EXPECT_EQ(r1->fault_injector()->stats().calls, 1u);
    }
  }
}

TEST_F(JoinFailoverTest, HealthyJoinNeverConsultsTheAlternate) {
  Mediator::Options options;
  options.join_failover = true;
  std::unique_ptr<Mediator> mediator = MakeMediator(options);
  const Result<Mediator::QueryResult> result = mediator->Query(kJoinSql);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 2u);
  EXPECT_EQ(mediator->StatsSnapshot().fault_tolerance.join_failovers, 0u);
  EXPECT_EQ(SourceOf(mediator.get(), "R2")->stats().queries_received, 0u);
}

}  // namespace
}  // namespace gencompact
