#include "exec/event_loop.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace gencompact {

namespace {

/// splitmix64-style premix: the seeded tie-break rank of one timer id.
/// Injective enough in practice; exact collisions fall back to id order so
/// the sort stays total either way.
uint64_t TieBreakRank(uint64_t seed, uint64_t id) {
  uint64_t x = seed ^ (id + 0x9e3779b97f4a7c15ull);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

EventLoop::EventLoop(const EventLoopOptions& options)
    : clock_(options.clock != nullptr ? options.clock : Clock::Real()),
      manual_(options.manual),
      tie_break_seed_(options.tie_break_seed) {
  if (manual_) {
    // The constructing thread owns the loop: it is "the loop thread" for
    // InLoopThread() checks, and it drives execution through PumpReady().
    loop_thread_id_ = std::this_thread::get_id();
    return;
  }
  thread_ = std::thread([this] { Run(); });
  loop_thread_id_ = thread_.get_id();
}

EventLoop::~EventLoop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  // Anything posted after the loop exited (a straggling cross-thread
  // completion) still runs, on the destroying thread, so no continuation is
  // silently lost. In manual mode this is also what drains tasks the driver
  // never pumped.
  for (const std::function<void()>& fn : posted_) fn();
  posted_.clear();
}

void EventLoop::Post(std::function<void()> fn) {
  tasks_posted_.fetch_add(1, std::memory_order_relaxed);
  // Notify under the lock: once the driving thread can see the task, this
  // thread no longer touches the loop — the task may be the last thing a
  // blocking Execute waits for before it destroys its private loop.
  std::lock_guard<std::mutex> lock(mu_);
  posted_.push_back(std::move(fn));
  cv_.notify_one();
}

EventLoop::TimerId EventLoop::ScheduleAfter(std::chrono::microseconds delay,
                                            std::function<void()> fn) {
  if (delay.count() < 0) delay = std::chrono::microseconds{0};
  timers_scheduled_.fetch_add(1, std::memory_order_relaxed);
  TimerId id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = next_timer_id_++;
    Timer timer;
    timer.id = id;
    timer.deadline = clock_->Now() + delay;
    timer.fn = std::move(fn);
    const size_t slot = SlotOf(timer.deadline);
    next_deadline_ = std::min(next_deadline_, timer.deadline);
    wheel_[slot].push_back(std::move(timer));
    timer_slot_.emplace(id, slot);
    armed_timers_.fetch_add(1, std::memory_order_relaxed);
  }
  cv_.notify_one();
  return id;
}

bool EventLoop::Cancel(TimerId id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = timer_slot_.find(id);
  if (it == timer_slot_.end()) return false;
  std::vector<Timer>& slot = wheel_[it->second];
  for (size_t i = 0; i < slot.size(); ++i) {
    if (slot[i].id != id) continue;
    slot.erase(slot.begin() + static_cast<ptrdiff_t>(i));
    break;
  }
  timer_slot_.erase(it);
  armed_timers_.fetch_sub(1, std::memory_order_relaxed);
  timers_cancelled_.fetch_add(1, std::memory_order_relaxed);
  // next_deadline_ may now be early; that only costs one spurious wake.
  return true;
}

void EventLoop::RefreshNextDeadline() {
  next_deadline_ = std::chrono::steady_clock::time_point::max();
  if (timer_slot_.empty()) return;
  for (const std::vector<Timer>& slot : wheel_) {
    for (const Timer& timer : slot) {
      next_deadline_ = std::min(next_deadline_, timer.deadline);
    }
  }
}

void EventLoop::CollectDue(std::chrono::steady_clock::time_point now,
                           std::vector<Timer>* due) {
  if (timer_slot_.empty() || now < next_deadline_) return;
  for (std::vector<Timer>& slot : wheel_) {
    for (size_t i = 0; i < slot.size();) {
      if (slot[i].deadline > now) {
        ++i;
        continue;
      }
      timer_slot_.erase(slot[i].id);
      due->push_back(std::move(slot[i]));
      slot.erase(slot.begin() + static_cast<ptrdiff_t>(i));
    }
  }
  armed_timers_.fetch_sub(due->size(), std::memory_order_relaxed);
  timers_fired_.fetch_add(due->size(), std::memory_order_relaxed);
  // Deterministic fire order: earliest deadline first; among equal
  // deadlines, schedule order — or the seed's permutation, which is how the
  // interleaving harness explores (and exactly replays) alternative
  // orderings that are all legal under the loop's contract.
  const uint64_t seed = tie_break_seed_;
  std::sort(due->begin(), due->end(), [seed](const Timer& a, const Timer& b) {
    if (a.deadline != b.deadline) return a.deadline < b.deadline;
    if (seed == 0) return a.id < b.id;
    const uint64_t ra = TieBreakRank(seed, a.id);
    const uint64_t rb = TieBreakRank(seed, b.id);
    return ra != rb ? ra < rb : a.id < b.id;
  });
  RefreshNextDeadline();
}

size_t EventLoop::PumpReady() {
  assert(manual_ && "PumpReady is the manual-drive API");
  assert(InLoopThread() && "pump from the owning thread only");
  std::unique_lock<std::mutex> lock(mu_);
  return RunReady(lock);
}

void EventLoop::RunUntil(const std::function<bool()>& done) {
  assert(manual_ && "RunUntil is the manual-drive API");
  assert(InLoopThread() && "pump from the owning thread only");
  std::unique_lock<std::mutex> lock(mu_);
  while (!done()) {
    if (RunReady(lock) == 0) WaitForWork(lock);
  }
}

std::chrono::steady_clock::time_point EventLoop::NextTimerDeadline() const {
  std::lock_guard<std::mutex> lock(mu_);
  // next_deadline_ can be stale-early after a Cancel; recompute exactly so
  // a simulated driver never advances time to a deadline nothing owns.
  auto exact = std::chrono::steady_clock::time_point::max();
  for (const std::vector<Timer>& slot : wheel_) {
    for (const Timer& timer : slot) exact = std::min(exact, timer.deadline);
  }
  return exact;
}

size_t EventLoop::RunReady(std::unique_lock<std::mutex>& lock) {
  ready_tasks_.swap(posted_);
  CollectDue(clock_->Now(), &ready_timers_);
  const size_t ran = ready_tasks_.size() + ready_timers_.size();
  if (ran == 0) return 0;
  lock.unlock();
  // Counted before each runs, so whoever a task hands its result to also
  // sees the task in stats().
  for (const std::function<void()>& fn : ready_tasks_) {
    tasks_run_.fetch_add(1, std::memory_order_relaxed);
    fn();
  }
  for (const Timer& timer : ready_timers_) {
    tasks_run_.fetch_add(1, std::memory_order_relaxed);
    timer.fn();
  }
  // Release the finished closures (and whatever state they pin) before
  // retaking the lock.
  ready_tasks_.clear();
  ready_timers_.clear();
  lock.lock();
  return ran;
}

void EventLoop::WaitForWork(std::unique_lock<std::mutex>& lock) {
  if (timer_slot_.empty()) {
    // No timers armed: a plain untimed wait, so a FakeClock is never
    // advanced speculatively while the loop is idle.
    cv_.wait(lock, [this] {
      return !posted_.empty() || stopping_ || !timer_slot_.empty();
    });
    return;
  }
  // Sleep exactly to the earliest deadline (a Post or a new, earlier timer
  // notifies the cv and re-evaluates). Under a FakeClock this advances
  // virtual time to the deadline and returns immediately.
  const auto now = clock_->Now();
  const auto armed_deadline = next_deadline_;
  const auto timeout =
      armed_deadline > now
          ? std::chrono::duration_cast<std::chrono::microseconds>(
                armed_deadline - now)
          : std::chrono::microseconds{0};
  clock_->AwaitFor(cv_, lock, std::max(timeout, std::chrono::microseconds{1}),
                   [this, armed_deadline] {
                     // A new, earlier timer must shorten the wait, not ride
                     // it out.
                     return !posted_.empty() || stopping_ ||
                            next_deadline_ < armed_deadline;
                   });
}

void EventLoop::Run() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (RunReady(lock) > 0) continue;
    if (stopping_) break;
    WaitForWork(lock);
  }
}

EventLoop::Stats EventLoop::stats() const {
  Stats s;
  s.tasks_posted = tasks_posted_.load(std::memory_order_relaxed);
  s.tasks_run = tasks_run_.load(std::memory_order_relaxed);
  s.timers_scheduled = timers_scheduled_.load(std::memory_order_relaxed);
  s.timers_fired = timers_fired_.load(std::memory_order_relaxed);
  s.timers_cancelled = timers_cancelled_.load(std::memory_order_relaxed);
  s.timer_wheel_size = armed_timers_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace gencompact
