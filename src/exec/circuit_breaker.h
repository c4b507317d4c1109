#ifndef GENCOMPACT_EXEC_CIRCUIT_BREAKER_H_
#define GENCOMPACT_EXEC_CIRCUIT_BREAKER_H_

#include <chrono>
#include <cstdint>
#include <mutex>

#include "common/clock.h"

namespace gencompact {

struct CircuitBreakerOptions {
  /// Consecutive retryable failures that trip the breaker open.
  size_t failure_threshold = 5;
  /// How long the breaker stays open before letting probe calls through.
  std::chrono::microseconds open_duration{50000};
  /// Trial calls admitted concurrently while half-open.
  size_t half_open_probes = 1;
  /// Successful probes required to close again.
  size_t success_threshold = 1;
};

/// Per-source circuit breaker (closed → open → half-open), shared by every
/// concurrent execution against that source. Once a source has failed
/// `failure_threshold` times in a row, further calls are rejected *without*
/// contacting it — a dead source stops eating retry budgets and backoff
/// sleeps across all clients at once. After `open_duration` the breaker
/// admits a bounded number of probes; one configured streak of successes
/// closes it, any probe failure re-opens it for another window.
///
/// Time comes from an injected Clock, so tests drive the open→half-open
/// transition by advancing a FakeClock instead of sleeping. Thread-safe; the
/// critical sections are a few loads and branches.
class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  explicit CircuitBreaker(CircuitBreakerOptions options = {},
                          Clock* clock = nullptr)
      : options_(options), clock_(clock != nullptr ? clock : Clock::Real()) {}

  /// True if a call may proceed. While open, returns false (fast rejection);
  /// while half-open, admits up to `half_open_probes` in-flight probes.
  /// Every admitted call MUST be followed by exactly one OnSuccess,
  /// OnFailure or OnAbandon, which is also how probe slots are released.
  bool Allow();

  /// The admitted call reached the source and got an answer (including a
  /// capability rejection — the source is alive, it just says no).
  void OnSuccess();

  /// The admitted call failed in a retryable way (unavailable / timeout).
  void OnFailure();

  /// The admitted call was abandoned before it answered (the losing side
  /// of a hedge race): releases its probe slot without judging the source.
  void OnAbandon();

  State state() const {
    std::lock_guard<std::mutex> lock(mu_);
    return state_;
  }

  /// The state a caller would *observe if it called Allow() now*: like
  /// state(), but applies the open-window expiry without mutating — an open
  /// breaker whose window has elapsed reports kHalfOpen, because the next
  /// real call would be admitted as a probe. Load shedding and the
  /// breaker-aware cost penalty read this, so a source whose window expired
  /// is probed (and can recover) instead of being shed forever.
  State EffectiveState() const {
    std::lock_guard<std::mutex> lock(mu_);
    if (state_ == State::kOpen && clock_->Now() >= open_until_) {
      return State::kHalfOpen;
    }
    return state_;
  }

  struct Stats {
    uint64_t opened = 0;          ///< closed/half-open → open transitions
    uint64_t closed = 0;          ///< half-open → closed transitions
    uint64_t rejected = 0;        ///< calls refused without contacting the source
    uint64_t probes_admitted = 0; ///< half-open trial calls let through
  };
  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

 private:
  void TripOpenLocked();  // requires mu_

  const CircuitBreakerOptions options_;
  Clock* clock_;
  mutable std::mutex mu_;
  State state_ = State::kClosed;
  size_t consecutive_failures_ = 0;
  size_t probes_in_flight_ = 0;
  size_t probe_successes_ = 0;
  std::chrono::steady_clock::time_point open_until_{};
  Stats stats_;
};

}  // namespace gencompact

#endif  // GENCOMPACT_EXEC_CIRCUIT_BREAKER_H_
