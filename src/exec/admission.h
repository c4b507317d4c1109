#ifndef GENCOMPACT_EXEC_ADMISSION_H_
#define GENCOMPACT_EXEC_ADMISSION_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>

#include "common/status.h"

namespace gencompact {

struct AdmissionOptions {
  bool enabled = false;
  /// Hard cap on backlog (in-flight + queued fetches); 0 = no cap.
  size_t max_pending = 0;
};

/// The mediator's two pre-planning gates.
///
/// The query-count gate works in whole queries: at most `max_queries` are
/// inside the mediator at once (`Mediator::Options::max_inflight_queries`,
/// 0 = no cap). EnterQuery checks the cap and counts the query in one
/// atomic step, so concurrent arrivals can never all pass a cap that only
/// one of them fits under; LeaveQuery returns the slot.
///
/// The backlog gate sheds hopeless queries *before* planning: if the backlog
/// ahead of a query, drained `drain_width` at a time (the mediator passes
/// the limiter's global cap, or 1) at the observed median per-trip latency,
/// cannot finish inside the query's deadline, reject now —
/// planning and queueing it would only burn work that is already doomed and
/// add to everyone else's wait. Complements load shedding (breaker-open
/// sheds) which fires on source *health*; this fires on *queue depth x
/// latency vs deadline*.
class AdmissionController {
 public:
  /// The latency quantile that estimates one round trip: the median.
  static constexpr double kTripQuantile = 0.5;

  /// `drain_width`: how many fetches drain concurrently — the divisor that
  /// turns backlog into expected queueing delay (0 counts as 1).
  explicit AdmissionController(AdmissionOptions options,
                               size_t max_queries = 0, size_t drain_width = 1)
      : options_(options),
        max_queries_(max_queries),
        drain_width_(std::max<size_t>(drain_width, 1)) {}

  /// Query-count gate: OK counts the query in (it must LeaveQuery once
  /// answered); kUnavailable sheds it when `max_queries` are already in.
  Status EnterQuery();
  void LeaveQuery() { active_.fetch_sub(1); }
  size_t active_queries() const { return active_.load(); }

  /// Backlog gate: `pending` = current backlog (limiter inflight + queued),
  /// `est` = one observed round trip at kTripQuantile (0 = no signal
  /// yet), `budget` = the query's deadline (0 = none). OK admits;
  /// kUnavailable sheds.
  Status Admit(size_t pending, std::chrono::microseconds est,
               std::chrono::microseconds budget);

  uint64_t rejections() const {
    return rejections_.load(std::memory_order_relaxed);
  }

  const AdmissionOptions& options() const { return options_; }

 private:
  AdmissionOptions options_;
  size_t max_queries_;
  size_t drain_width_;
  std::atomic<size_t> active_{0};
  std::atomic<uint64_t> rejections_{0};
};

}  // namespace gencompact

#endif  // GENCOMPACT_EXEC_ADMISSION_H_
