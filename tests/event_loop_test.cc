// EventLoop timer-wheel units and the deterministic-interleaving harness:
//  - threaded mode: posted tasks run in order on the loop thread, timers
//    fire in deadline order on a FakeClock, long delays survive wheel
//    revolutions, cancellation disarms;
//  - manual mode (SimulatedEventLoop): nothing runs until the test pumps,
//    Step() advances virtual time to the next deadline, AdvanceBy() fires
//    intermediate deadlines in order on the way;
//  - seeded tie-break: timers coalesced on one exact deadline fire in the
//    seed's permutation — the same (seed, script) replays the identical
//    schedule, and sweeping seeds explores orderings wall clocks cannot
//    reproduce. The Executor interleaving tests drive a real plan
//    execution one event at a time and assert every seed's schedule reaches
//    the same answer;
//  - RunUntil: the blocking Executor's drive, waiting for a cross-thread
//    Post when no timer is armed.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "exec/event_loop.h"
#include "exec/executor.h"
#include "exec/fault_policy.h"
#include "expr/condition_parser.h"
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
// Threaded mode.
// ---------------------------------------------------------------------------

TEST(EventLoopTest, PostedTasksRunInOrderOnTheLoopThread) {
  EventLoop loop;
  std::vector<int> order;
  bool on_loop_thread = true;
  std::promise<void> done;
  for (int i = 0; i < 10; ++i) {
    loop.Post([&, i] {
      on_loop_thread = on_loop_thread && loop.InLoopThread();
      order.push_back(i);
    });
  }
  // A separate barrier task: by the time it runs, all ten tasks above have
  // completed and been counted.
  loop.Post([&] { done.set_value(); });
  done.get_future().wait();
  EXPECT_TRUE(on_loop_thread);
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
  const EventLoop::Stats stats = loop.stats();
  EXPECT_EQ(stats.tasks_posted, 11u);
  EXPECT_GE(stats.tasks_run, 10u);
}

TEST(EventLoopTest, TimersFireInDeadlineOrderOnFakeClock) {
  FakeClock clock;
  EventLoop loop(&clock);
  const auto t0 = clock.Now();
  std::vector<int> order;
  std::promise<void> done;
  // Arm from the loop thread so all three are in the wheel before the idle
  // loop can advance virtual time past any of them.
  loop.Post([&] {
    loop.ScheduleAfter(microseconds(5000), [&] {
      order.push_back(5);
      done.set_value();
    });
    loop.ScheduleAfter(microseconds(1000), [&] { order.push_back(1); });
    loop.ScheduleAfter(microseconds(3000), [&] { order.push_back(3); });
  });
  done.get_future().wait();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 3);
  EXPECT_EQ(order[2], 5);
  EXPECT_EQ(loop.stats().timers_fired, 3u);
  EXPECT_EQ(loop.timer_wheel_size(), 0u);
  // Virtual time advanced to the last deadline without wall-clock waiting.
  EXPECT_GE(clock.Now() - t0, microseconds(5000));
}

TEST(EventLoopTest, LongDelaysSurviveWheelRevolutions) {
  // 500ms is ~2 revolutions of the 256 x 1024us wheel: the timer aliases
  // into its slot and must be skipped until its revolution comes around.
  FakeClock clock;
  EventLoop loop(&clock);
  const auto t0 = clock.Now();
  std::promise<void> done;
  loop.Post([&] {
    loop.ScheduleAfter(microseconds(500000), [&] { done.set_value(); });
    loop.ScheduleAfter(microseconds(1000), [] {});
  });
  done.get_future().wait();
  EXPECT_GE(clock.Now() - t0, microseconds(500000));
  EXPECT_EQ(loop.stats().timers_fired, 2u);
}

TEST(EventLoopTest, CancelledTimersNeverFire) {
  FakeClock clock;
  EventLoop loop(&clock);
  std::atomic<bool> fired{false};
  bool first_cancel = false;
  bool second_cancel = true;
  std::promise<void> done;
  loop.Post([&] {
    const EventLoop::TimerId id =
        loop.ScheduleAfter(microseconds(2000), [&] { fired = true; });
    first_cancel = loop.Cancel(id);
    second_cancel = loop.Cancel(id);  // already disarmed
    loop.ScheduleAfter(microseconds(5000), [&] { done.set_value(); });
  });
  done.get_future().wait();
  EXPECT_TRUE(first_cancel);
  EXPECT_FALSE(second_cancel);
  EXPECT_FALSE(fired.load());
  EXPECT_EQ(loop.timer_wheel_size(), 0u);
  const EventLoop::Stats stats = loop.stats();
  EXPECT_EQ(stats.timers_cancelled, 1u);
  EXPECT_EQ(stats.timers_fired, 1u);
}

// ---------------------------------------------------------------------------
// Manual mode / SimulatedEventLoop step semantics.
// ---------------------------------------------------------------------------

TEST(EventLoopTest, ManualModeRunsNothingUntilPumped) {
  SimulatedEventLoop sim;
  std::vector<int> order;
  sim.loop()->Post([&] { order.push_back(1); });
  sim.loop()->Post([&] {
    order.push_back(2);
    // Work posted by a task is NOT run in the same pump: each pump is one
    // observable scheduling round.
    sim.loop()->Post([&] { order.push_back(3); });
  });
  EXPECT_TRUE(order.empty());
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_FALSE(sim.Step());  // fully idle
}

TEST(EventLoopTest, StepAdvancesVirtualTimeToTheNextDeadlineOnly) {
  SimulatedEventLoop sim;
  std::vector<int> order;
  sim.loop()->ScheduleAfter(microseconds(4000), [&] { order.push_back(4); });
  sim.loop()->ScheduleAfter(microseconds(1000), [&] { order.push_back(1); });
  const auto t0 = sim.clock()->Now();
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(sim.clock()->Now() - t0, microseconds(1000));  // not 4000
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(order, (std::vector<int>{1, 4}));
  EXPECT_EQ(sim.clock()->Now() - t0, microseconds(4000));
  EXPECT_FALSE(sim.Step());
}

TEST(EventLoopTest, AdvanceByFiresIntermediateDeadlinesInOrder) {
  SimulatedEventLoop sim;
  std::vector<int> order;
  sim.loop()->ScheduleAfter(microseconds(5000), [&] { order.push_back(5); });
  sim.loop()->ScheduleAfter(microseconds(2000), [&] { order.push_back(2); });
  sim.loop()->ScheduleAfter(microseconds(1000), [&] { order.push_back(1); });
  const auto t0 = sim.clock()->Now();
  sim.AdvanceBy(microseconds(3000));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  // The clock lands exactly at the window's end, not at a deadline.
  EXPECT_EQ(sim.clock()->Now() - t0, microseconds(3000));
  EXPECT_EQ(sim.loop()->timer_wheel_size(), 1u);  // the 5ms timer survives
  sim.AdvanceBy(microseconds(3000));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 5}));
}

TEST(EventLoopTest, RunUntilIdleDrainsChainedTimers) {
  SimulatedEventLoop sim;
  int hops = 0;
  std::function<void()> hop = [&] {
    if (++hops < 5) sim.loop()->ScheduleAfter(microseconds(1000), hop);
  };
  sim.loop()->ScheduleAfter(microseconds(1000), hop);
  const auto t0 = sim.clock()->Now();
  const size_t ran = sim.RunUntilIdle();
  EXPECT_EQ(hops, 5);
  EXPECT_GE(ran, 5u);
  // Each hop advanced virtual time by its own delay.
  EXPECT_EQ(sim.clock()->Now() - t0, microseconds(5000));
}

// ---------------------------------------------------------------------------
// Seeded tie-break: coalesced deadlines fire in the seed's permutation.
// ---------------------------------------------------------------------------

std::vector<int> CoalescedFiringOrder(uint64_t seed) {
  SimulatedEventLoop sim(seed);
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    sim.loop()->ScheduleAfter(microseconds(1000), [&order, i] {
      order.push_back(i);
    });
  }
  sim.RunUntilIdle();
  return order;
}

TEST(EventLoopTest, SeedZeroFiresCoalescedDeadlinesInScheduleOrder) {
  EXPECT_EQ(CoalescedFiringOrder(0),
            (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventLoopTest, SeededTieBreakReplaysExactlyAndExploresOrders) {
  bool any_differs = false;
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    const std::vector<int> first = CoalescedFiringOrder(seed);
    // Deterministic replay: same (seed, script) -> the identical schedule.
    EXPECT_EQ(first, CoalescedFiringOrder(seed)) << "seed " << seed;
    // Every permutation still fires every timer exactly once.
    EXPECT_EQ(std::set<int>(first.begin(), first.end()).size(), 8u);
    if (first != std::vector<int>({0, 1, 2, 3, 4, 5, 6, 7})) {
      any_differs = true;
    }
  }
  // The sweep explored at least one ordering the production tie-break
  // (schedule order) would never produce.
  EXPECT_TRUE(any_differs);
}

TEST(EventLoopTest, TieBreakOnlyReordersEqualDeadlines) {
  // Distinct deadlines always fire in deadline order, whatever the seed.
  for (uint64_t seed : {1ull, 7ull, 12345ull}) {
    SimulatedEventLoop sim(seed);
    std::vector<int> order;
    sim.loop()->ScheduleAfter(microseconds(3000), [&] { order.push_back(3); });
    sim.loop()->ScheduleAfter(microseconds(1000), [&] { order.push_back(1); });
    sim.loop()->ScheduleAfter(microseconds(2000), [&] { order.push_back(2); });
    sim.RunUntilIdle();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3})) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// RunUntil: a manual loop driven to a condition on its owning thread — the
// blocking Executor::Execute drive.
// ---------------------------------------------------------------------------

TEST(EventLoopTest, RunUntilFiresTimersInVirtualTime) {
  FakeClock clock;
  EventLoopOptions options;
  options.clock = &clock;
  options.manual = true;
  EventLoop loop(options);
  std::vector<int> fired;
  loop.ScheduleAfter(microseconds(300), [&] { fired.push_back(2); });
  loop.ScheduleAfter(microseconds(100), [&] { fired.push_back(1); });
  loop.RunUntil([&] { return fired.size() == 2; });
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  // The clock jumped from deadline to deadline and stopped at the last.
  EXPECT_EQ(clock.Now().time_since_epoch(), microseconds(300));
}

TEST(EventLoopTest, RunUntilWaitsForACrossThreadPost) {
  FakeClock clock;
  EventLoopOptions options;
  options.clock = &clock;
  options.manual = true;
  EventLoop loop(options);
  bool done = false;
  // No timer is armed, so the drive must block for the worker's Post —
  // without advancing the fake clock speculatively.
  std::thread worker([&loop, &done] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    loop.Post([&done] { done = true; });
  });
  loop.RunUntil([&done] { return done; });
  worker.join();
  EXPECT_TRUE(done);
  EXPECT_EQ(clock.Now().time_since_epoch().count(), 0);
}

// ---------------------------------------------------------------------------
// Interleaving the executor: a real plan execution stepped one event
// at a time, across a sweep of tie-break seeds. Any failing schedule would
// replay exactly from (seed, script); every schedule must reach the same
// answer and the same per-source call count.
// ---------------------------------------------------------------------------

constexpr const char* kInterleaveSsdl = R"(
  source R(k: string, v: int) {
    rule s1 -> k = $string;
    rule s2 -> v < $int;
    rule s3 -> v >= $int;
    export s1 : {k, v};
    export s2 : {k, v};
    export s3 : {k, v};
  })";

struct InterleaveRun {
  size_t rows = 0;
  size_t source_queries = 0;
  uint64_t retries = 0;
  size_t steps = 0;
  bool ok = false;
};

InterleaveRun RunInterleaved(uint64_t seed, uint64_t fail_first_n) {
  const Result<SourceDescription> description = ParseSsdl(kInterleaveSsdl);
  EXPECT_TRUE(description.ok()) << description.status().ToString();
  Table table("R", description->schema());
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(table
                    .AppendValues({Value::String(i % 2 ? "odd" : "even"),
                                   Value::Int(i)})
                    .ok());
  }
  Source source(&table, &*description);
  source.set_fault_policy(FaultPolicy{});
  source.fault_injector()->FailNextN(fail_first_n);
  source.set_simulated_latency(microseconds(1000));

  SimulatedEventLoop sim(seed);
  ExecOptions options;
  options.clock = sim.clock();
  options.retry.max_attempts = 4;
  Executor executor(&source, /*pool=*/nullptr, options, sim.loop());

  const PlanPtr plan = PlanNode::UnionOf(
      {PlanNode::SourceQuery(Parse("v < 4"), *description->schema().MakeSet(
                                                 {"k", "v"})),
       PlanNode::SourceQuery(Parse("v >= 7"), *description->schema().MakeSet(
                                                  {"k", "v"})),
       PlanNode::SourceQuery(Parse("k = \"odd\""),
                             *description->schema().MakeSet({"k", "v"}))});

  InterleaveRun run;
  bool done = false;
  Result<RowSet> answer = Status::Internal("not delivered");
  executor.ExecuteAsync(plan, [&](Result<RowSet> rows) {
    answer = std::move(rows);
    done = true;
  });
  // Drive the whole execution one deterministic step at a time.
  while (sim.Step()) ++run.steps;
  EXPECT_TRUE(done);
  run.ok = answer.ok();
  if (answer.ok()) run.rows = answer->size();
  run.source_queries = executor.stats().source_queries;
  run.retries = executor.stats().retries;
  return run;
}

TEST(EventLoopInterleavingTest, EverySeedSchedulesToTheSameAnswer) {
  const InterleaveRun baseline = RunInterleaved(/*seed=*/0, /*fail=*/0);
  ASSERT_TRUE(baseline.ok);
  // {0..3} u {7,8,9} u odds = {0,1,2,3,5,7,8,9}
  EXPECT_EQ(baseline.rows, 8u);
  EXPECT_EQ(baseline.source_queries, 3u);
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const InterleaveRun run = RunInterleaved(seed, /*fail=*/0);
    EXPECT_TRUE(run.ok) << "seed " << seed;
    EXPECT_EQ(run.rows, baseline.rows) << "seed " << seed;
    EXPECT_EQ(run.source_queries, baseline.source_queries) << "seed " << seed;
  }
}

TEST(EventLoopInterleavingTest, RetrySchedulesReplayExactlyFromSeed) {
  // Two scripted failures land on whichever fetches the seed's schedule
  // sends out first; retries recover both. Replaying the same seed must
  // reproduce the schedule event for event (same step count), and every
  // seed's schedule recovers the same answer.
  for (uint64_t seed = 0; seed <= 6; ++seed) {
    const InterleaveRun first = RunInterleaved(seed, /*fail=*/2);
    const InterleaveRun replay = RunInterleaved(seed, /*fail=*/2);
    EXPECT_TRUE(first.ok) << "seed " << seed;
    EXPECT_EQ(first.rows, 8u) << "seed " << seed;
    EXPECT_EQ(first.retries, 2u) << "seed " << seed;
    EXPECT_EQ(first.steps, replay.steps) << "seed " << seed;
    EXPECT_EQ(first.retries, replay.retries) << "seed " << seed;
    EXPECT_EQ(first.source_queries, replay.source_queries)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace gencompact
