#ifndef GENCOMPACT_EXEC_FAULT_POLICY_H_
#define GENCOMPACT_EXEC_FAULT_POLICY_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace gencompact {

/// Scriptable fault model for a simulated Internet source. All randomness is
/// a pure function of (seed, per-source call index), so a given policy
/// replays the exact same fault schedule run after run: under a fixed
/// arrival order every decision is reproducible, and under concurrent
/// arrival the *set* of injected faults over N calls is identical even when
/// which thread draws which index varies.
struct FaultPolicy {
  uint64_t seed = 1;

  /// Probability that a call fails fast with kUnavailable (connection reset,
  /// HTTP 503, ...). Drawn independently per call.
  double transient_error_rate = 0.0;

  /// Probability that a call gets "stuck": the source holds the caller for
  /// `stuck_penalty` of simulated wall time and then fails with
  /// kDeadlineExceeded — a client-side timeout on a hung request.
  double stuck_call_rate = 0.0;
  std::chrono::microseconds stuck_penalty{0};

  /// Probability that a call is merely slow: it still answers, after
  /// `slow_latency` extra simulated round-trip time.
  double slow_call_rate = 0.0;
  std::chrono::microseconds slow_latency{0};

  /// Hard outage windows in call-index space: every call whose index lands
  /// in some [begin, end) fails with kUnavailable regardless of the random
  /// rates — a dead server, scheduled in "queries seen" time so tests can
  /// script "down for the next 50 calls" without touching a clock.
  struct Outage {
    uint64_t begin = 0;
    uint64_t end = 0;
  };
  std::vector<Outage> outages;

  /// Page-indexed fault schedule for result-bounded sources: the first
  /// `fail_count` calls that request the page starting at row `offset` fail
  /// fast with kUnavailable, independent of the call index. This is how the
  /// paging tests script "the second page fails once, then succeeds" —
  /// a mid-loop transient whose retry must resume at the same offset.
  struct PageFault {
    uint64_t offset = 0;      ///< page start offset the fault is keyed on
    uint64_t fail_count = 1;  ///< how many requests for this page fail
  };
  std::vector<PageFault> page_faults;

  /// Interleaving-independent draws: each call's random decision becomes a
  /// pure function of (seed, sub-query fingerprint, page offset, per-key
  /// attempt index) instead of the global per-source call index. Two runs
  /// that issue the same *multiset* of calls in different global orders —
  /// say, under different timer interleavings — then observe the exact same
  /// fault outcome on every corresponding call, which is what lets the
  /// executor oracle demand identical retry statistics on replay, not just
  /// identical answers. Only the random rates key this way; outages and
  /// page_faults stay in call-index space (they are order-dependent
  /// scripting constructs by design).
  bool keyed_schedule = false;

  /// True if any mechanism can fire (the zero policy is a guaranteed no-op).
  bool active() const {
    return transient_error_rate > 0 || stuck_call_rate > 0 ||
           slow_call_rate > 0 || !outages.empty() || !page_faults.empty();
  }
};

/// Thread-safe evaluator of a FaultPolicy. One per Source; also the home of
/// the `fail_next_n` scripted-failure knob (tests inject "the next 3 calls
/// fail" at any point, independent of the policy's random schedule).
class FaultInjector {
 public:
  explicit FaultInjector(FaultPolicy policy) : policy_(std::move(policy)) {
    for (const FaultPolicy::PageFault& fault : policy_.page_faults) {
      page_fail_remaining_[fault.offset] += fault.fail_count;
    }
  }

  /// What the injector decided for one call.
  struct Decision {
    StatusCode code = StatusCode::kOk;  ///< kOk, kUnavailable, kDeadlineExceeded
    std::chrono::microseconds extra_latency{0};  ///< slow call / stuck penalty
    const char* reason = "";                     ///< for the error message
  };

  /// Draws the decision for the next call (advances the call index).
  /// `page_offset` is the starting row of the requested page (0 for plain,
  /// unpaged calls) — it keys the policy's page-indexed fault schedule.
  /// `fingerprint` identifies the sub-query issuing the call; under
  /// `FaultPolicy::keyed_schedule` the random-rate draw is a pure function
  /// of (seed, fingerprint, page_offset, per-key attempt index), so two
  /// executors replaying the same logical calls in any global order see the
  /// same faults. Ignored (may stay 0) when keyed_schedule is off.
  Decision NextCall(uint64_t page_offset = 0, uint64_t fingerprint = 0);

  /// Scripts the next `n` calls to fail with kUnavailable, on top of
  /// whatever the policy would have decided.
  void FailNextN(uint64_t n) {
    fail_next_.fetch_add(n, std::memory_order_relaxed);
  }

  const FaultPolicy& policy() const { return policy_; }

  struct Stats {
    uint64_t calls = 0;
    uint64_t injected_unavailable = 0;  ///< transient + outage + scripted
    uint64_t injected_timeouts = 0;     ///< stuck calls
    uint64_t injected_slow = 0;         ///< answered, but late
  };
  Stats stats() const {
    Stats s;
    s.calls = calls_.load(std::memory_order_relaxed);
    s.injected_unavailable = unavailable_.load(std::memory_order_relaxed);
    s.injected_timeouts = timeouts_.load(std::memory_order_relaxed);
    s.injected_slow = slow_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  FaultPolicy policy_;
  /// Remaining scripted failures per page offset (guarded by page_mu_;
  /// empty and never locked unless the policy lists page faults).
  std::mutex page_mu_;
  std::unordered_map<uint64_t, uint64_t> page_fail_remaining_;
  /// Per-(fingerprint, offset) attempt counters for keyed_schedule draws
  /// (guarded by keyed_mu_; untouched unless the policy opts in).
  std::mutex keyed_mu_;
  std::unordered_map<uint64_t, uint64_t> keyed_attempts_;
  std::atomic<uint64_t> calls_{0};
  std::atomic<uint64_t> fail_next_{0};
  std::atomic<uint64_t> unavailable_{0};
  std::atomic<uint64_t> timeouts_{0};
  std::atomic<uint64_t> slow_{0};
};

}  // namespace gencompact

#endif  // GENCOMPACT_EXEC_FAULT_POLICY_H_
