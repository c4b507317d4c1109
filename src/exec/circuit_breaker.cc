#include "exec/circuit_breaker.h"

namespace gencompact {

void CircuitBreaker::TripOpenLocked() {
  state_ = State::kOpen;
  open_until_ = clock_->Now() + options_.open_duration;
  consecutive_failures_ = 0;
  probes_in_flight_ = 0;
  probe_successes_ = 0;
  ++stats_.opened;
}

bool CircuitBreaker::Allow() {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ == State::kOpen) {
    if (clock_->Now() < open_until_) {
      ++stats_.rejected;
      return false;
    }
    // Window expired: move to half-open and fall through to the probe gate.
    state_ = State::kHalfOpen;
    probes_in_flight_ = 0;
    probe_successes_ = 0;
  }
  if (state_ == State::kHalfOpen) {
    if (probes_in_flight_ >= options_.half_open_probes) {
      ++stats_.rejected;
      return false;
    }
    ++probes_in_flight_;
    ++stats_.probes_admitted;
    return true;
  }
  return true;  // closed
}

void CircuitBreaker::OnSuccess() {
  std::lock_guard<std::mutex> lock(mu_);
  switch (state_) {
    case State::kClosed:
      consecutive_failures_ = 0;
      break;
    case State::kHalfOpen:
      if (probes_in_flight_ > 0) --probes_in_flight_;
      if (++probe_successes_ >= options_.success_threshold) {
        state_ = State::kClosed;
        consecutive_failures_ = 0;
        ++stats_.closed;
      }
      break;
    case State::kOpen:
      // A call admitted before the trip succeeded late; the breaker stays
      // open — recovery is proven by probes, not stragglers.
      break;
  }
}

void CircuitBreaker::OnFailure() {
  std::lock_guard<std::mutex> lock(mu_);
  switch (state_) {
    case State::kClosed:
      if (++consecutive_failures_ >= options_.failure_threshold) {
        TripOpenLocked();
      }
      break;
    case State::kHalfOpen:
      // The probe failed: the source is still sick; re-open a full window.
      TripOpenLocked();
      break;
    case State::kOpen:
      break;  // straggler failure; already open
  }
}

void CircuitBreaker::OnAbandon() {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ == State::kHalfOpen && probes_in_flight_ > 0) --probes_in_flight_;
}

}  // namespace gencompact
