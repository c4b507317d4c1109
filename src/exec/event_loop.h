#ifndef GENCOMPACT_EXEC_EVENT_LOOP_H_
#define GENCOMPACT_EXEC_EVENT_LOOP_H_

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/clock.h"

namespace gencompact {

/// Construction knobs for EventLoop.
struct EventLoopOptions {
  /// Time source; null = Clock::Real().
  Clock* clock = nullptr;
  /// Manual drive: no loop thread is spawned — the constructing thread owns
  /// the loop and pumps it via PumpReady()/NextTimerDeadline() (what the
  /// SimulatedEventLoop test harness does, stepping virtual time between
  /// pumps) or RunUntil() (what a blocking Executor::Execute does). Default:
  /// a dedicated loop thread runs Run().
  bool manual = false;
  /// Tie-break order among timers that share an exact deadline: 0 fires them
  /// in schedule order (the id); any other value fires them in a pseudo-random
  /// permutation derived from (seed, timer id). The permutation is a pure
  /// function of the seed, so a schedule that fails under seed S replays
  /// identically from S — the deterministic-interleaving harness sweeps seeds
  /// to explore orderings the production tie-break would never produce.
  uint64_t tie_break_seed = 0;
};

/// A single-threaded event loop: a ready queue of posted tasks plus a hashed
/// timer wheel, both driven by the injectable Clock. One thread runs every
/// continuation of the executor's plan walk, so execution state touched only
/// from loop tasks needs no locks; anything that must wait — a simulated
/// source round trip, a backoff sleep, a hedge delay, a breaker probe — is a
/// timer event instead of a parked thread.
///
/// Time is virtualized through Clock::AwaitFor: under the real clock the
/// loop blocks on a condition variable until the next timer deadline (or an
/// earlier Post), and under a FakeClock the wait advances virtual time to
/// the deadline instantly — the whole timer schedule replays deterministically
/// with zero wall-clock cost, which is what makes the async retry/hedge/
/// deadline tests exact.
///
/// Timers are bucketed by deadline into a fixed-slot wheel (insertion and
/// cancellation are O(1) map + slot operations); firing walks the wheel and
/// releases every entry whose exact deadline has passed, in (deadline,
/// tie-break order) — the wheel's granularity affects bucketing only, never
/// when a timer fires.
class EventLoop {
 public:
  using TimerId = uint64_t;

  /// Starts the loop thread. `clock` may be null (= Clock::Real()).
  explicit EventLoop(Clock* clock = nullptr)
      : EventLoop(WithClock(clock)) {}

  explicit EventLoop(const EventLoopOptions& options);

  /// Stops intake, drains tasks already posted, joins the loop thread (when
  /// one exists). Armed timers whose deadline has not passed are dropped (a
  /// loop is destroyed only when no execution is in flight, like the
  /// mediator itself).
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Enqueues `fn` to run on the loop thread. Thread-safe; callable from the
  /// loop thread itself (the task runs on a later iteration, never inline).
  void Post(std::function<void()> fn);

  /// Arms a timer: `fn` runs on the loop thread once `delay` has elapsed on
  /// the loop's clock (a non-positive delay fires on the next iteration).
  /// Thread-safe. Returns an id usable with Cancel.
  TimerId ScheduleAfter(std::chrono::microseconds delay,
                        std::function<void()> fn);

  /// Best-effort cancellation: true if the timer was still armed (it will
  /// not fire), false if it already fired, was cancelled, or never existed.
  bool Cancel(TimerId id);

  /// True when called from the loop thread (continuations assert this
  /// before touching loop-confined state). In manual mode the constructing
  /// thread IS the loop thread.
  bool InLoopThread() const {
    return std::this_thread::get_id() == loop_thread_id_;
  }

  Clock* clock() const { return clock_; }
  bool manual() const { return manual_; }

  /// Source round trips begun on this loop whose verdict has not come back
  /// to it yet: on the wire, or being scanned on a pool. Counted across
  /// every execution the loop runs (the concurrent bind batches of a join
  /// are separate executions), so a private loop's driver can outlive them
  /// all and the scan-offload rule sees the loop's whole load.
  /// Loop-confined: call from loop tasks, or from a manual loop's owning
  /// thread (e.g. inside RunUntil's `done`).
  size_t round_trips() const { return round_trips_; }
  void BeginRoundTrip() { ++round_trips_; }
  void EndRoundTrip() { --round_trips_; }

  // ---- Manual drive (manual mode only; call from the owning thread). ----

  /// Runs everything ready right now — all posted tasks, then every timer
  /// whose deadline has passed on the loop's clock, in (deadline, tie-break)
  /// order. Returns how many tasks/timers ran. Work they post or schedule
  /// with zero delay is NOT run in the same pump (call again, or Step the
  /// simulated loop) — each pump is one observable scheduling round.
  size_t PumpReady();

  /// Drives the loop on the owning thread until `done()` holds: runs ready
  /// tasks and due timers, and when nothing is ready waits exactly like the
  /// loop thread in Run() — through Clock::AwaitFor up to the next timer
  /// deadline (a FakeClock jumps there instantly), or, with no timer armed,
  /// until another thread Posts (a scan offload handing its result back).
  /// `done` runs on the owning thread between rounds, with the loop's
  /// internal lock held: it may read loop-confined state, never call into
  /// the loop.
  void RunUntil(const std::function<bool()>& done);

  /// Earliest armed timer deadline, or time_point::max() when none. Exact
  /// (recomputed), so a driver can advance a FakeClock straight to it.
  std::chrono::steady_clock::time_point NextTimerDeadline() const;

  /// Armed (uncancelled, unfired) timers right now — the wheel-size gauge.
  size_t timer_wheel_size() const {
    return armed_timers_.load(std::memory_order_relaxed);
  }

  struct Stats {
    uint64_t tasks_posted = 0;
    uint64_t tasks_run = 0;        ///< posted tasks + fired timers executed
    uint64_t timers_scheduled = 0;
    uint64_t timers_fired = 0;
    uint64_t timers_cancelled = 0;
    size_t timer_wheel_size = 0;
  };
  Stats stats() const;

 private:
  struct Timer {
    TimerId id = 0;
    std::chrono::steady_clock::time_point deadline;
    std::function<void()> fn;
  };

  static EventLoopOptions WithClock(Clock* clock) {
    EventLoopOptions options;
    options.clock = clock;
    return options;
  }

  // 256 slots x 1024us ticks: one wheel revolution covers ~262ms, longer
  // delays simply alias into their slot and are skipped (exact-deadline
  // check) until their revolution comes around.
  static constexpr size_t kNumSlots = 256;
  static constexpr int64_t kTickUs = 1024;

  static size_t SlotOf(std::chrono::steady_clock::time_point deadline) {
    const int64_t us = std::chrono::duration_cast<std::chrono::microseconds>(
                           deadline.time_since_epoch())
                           .count();
    return static_cast<size_t>((us / kTickUs) % static_cast<int64_t>(kNumSlots));
  }

  void Run();
  /// Runs every posted task, then every timer due now (`lock` holds mu_ on
  /// entry and exit, released while tasks run); returns how many ran.
  size_t RunReady(std::unique_lock<std::mutex>& lock);
  /// Blocks (`lock` holds mu_) until a Post, an earlier timer, a stop, or
  /// the earliest armed deadline — Run()'s and RunUntil()'s shared wait.
  void WaitForWork(std::unique_lock<std::mutex>& lock);
  /// Moves every timer with deadline <= now into `due` (sorted by deadline,
  /// then the tie-break order) and refreshes next_deadline_. Caller holds mu_.
  void CollectDue(std::chrono::steady_clock::time_point now,
                  std::vector<Timer>* due);
  /// Recomputes next_deadline_ from the wheel. Caller holds mu_.
  void RefreshNextDeadline();

  Clock* clock_;
  const bool manual_;
  const uint64_t tie_break_seed_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::function<void()>> posted_;
  std::array<std::vector<Timer>, kNumSlots> wheel_;
  std::unordered_map<TimerId, size_t> timer_slot_;  // armed timer -> slot
  std::chrono::steady_clock::time_point next_deadline_{
      std::chrono::steady_clock::time_point::max()};
  TimerId next_timer_id_ = 1;
  bool stopping_ = false;
  // RunReady's batch buffers, reused so a steady loop does not reallocate;
  // touched only by the thread driving the loop.
  std::vector<std::function<void()>> ready_tasks_;
  std::vector<Timer> ready_timers_;
  size_t round_trips_ = 0;  // loop-confined, see round_trips()

  std::atomic<size_t> armed_timers_{0};
  std::atomic<uint64_t> tasks_posted_{0};
  std::atomic<uint64_t> tasks_run_{0};
  std::atomic<uint64_t> timers_scheduled_{0};
  std::atomic<uint64_t> timers_fired_{0};
  std::atomic<uint64_t> timers_cancelled_{0};

  std::thread thread_;
  std::thread::id loop_thread_id_;
};

/// The deterministic-interleaving test harness: an EventLoop in manual mode
/// over its own FakeClock, stepped explicitly. Nothing runs until the test
/// calls Step()/RunUntilIdle()/AdvanceBy(), and everything that runs does so
/// on the test's own thread in a fully determined order:
///
///   - within one step, posted tasks run first (in post order), then due
///     timers in (deadline, tie-break) order;
///   - timers sharing an exact deadline fire in the seed's permutation, so
///     `SimulatedEventLoop(seed)` + the same script of Post/ScheduleAfter
///     calls replays one schedule exactly — a failing interleaving is
///     reproduced from (seed, script) alone, and sweeping seeds explores
///     orderings a wall-clock run could produce but never reproduce.
///
/// Virtual time only advances when a step finds no ready work: the clock
/// jumps straight to the earliest armed deadline. AdvanceBy() bounds the
/// jumpery to a window, firing everything due on the way in deadline order.
class SimulatedEventLoop {
 public:
  explicit SimulatedEventLoop(uint64_t seed = 0)
      : clock_(), loop_(MakeOptions(&clock_, seed)), seed_(seed) {}

  EventLoop* loop() { return &loop_; }
  FakeClock* clock() { return &clock_; }
  uint64_t seed() const { return seed_; }

  /// One deterministic step: run everything ready at the current virtual
  /// time; if nothing is ready but timers are armed, advance the clock to
  /// the earliest deadline and fire what lands. False when the loop is
  /// fully idle (no ready tasks, no armed timers).
  bool Step() {
    if (loop_.PumpReady() > 0) return true;
    const auto next = loop_.NextTimerDeadline();
    if (next == std::chrono::steady_clock::time_point::max()) return false;
    if (next > clock_.Now()) {
      clock_.Advance(std::chrono::duration_cast<std::chrono::microseconds>(
          next - clock_.Now()));
    }
    return loop_.PumpReady() > 0;
  }

  /// Steps until idle; returns total tasks + timers run. The async DAG
  /// walk always terminates (retry budgets bound repetition), so this does
  /// too.
  size_t RunUntilIdle() {
    size_t ran = 0;
    for (;;) {
      const size_t before = loop_.stats().tasks_run;
      if (!Step()) return ran;
      ran += loop_.stats().tasks_run - before;
    }
  }

  /// Advances virtual time by `duration`, firing everything that becomes
  /// due on the way in deadline order (not in one batch at the end), then
  /// leaves the clock exactly `duration` later. Returns tasks + timers run.
  size_t AdvanceBy(std::chrono::microseconds duration) {
    const auto target = clock_.Now() + duration;
    size_t ran = 0;
    for (;;) {
      ran += loop_.PumpReady();
      const auto next = loop_.NextTimerDeadline();
      if (next > target) break;
      if (next > clock_.Now()) {
        clock_.Advance(std::chrono::duration_cast<std::chrono::microseconds>(
            next - clock_.Now()));
      }
      ran += loop_.PumpReady();
    }
    if (target > clock_.Now()) {
      clock_.Advance(std::chrono::duration_cast<std::chrono::microseconds>(
          target - clock_.Now()));
    }
    ran += loop_.PumpReady();
    return ran;
  }

 private:
  static EventLoopOptions MakeOptions(Clock* clock, uint64_t seed) {
    EventLoopOptions options;
    options.clock = clock;
    options.manual = true;
    options.tie_break_seed = seed;
    return options;
  }

  FakeClock clock_;
  EventLoop loop_;
  uint64_t seed_;
};

}  // namespace gencompact

#endif  // GENCOMPACT_EXEC_EVENT_LOOP_H_
