#include "exec/admission.h"

#include <string>

namespace gencompact {

Status AdmissionController::Admit(size_t pending,
                                  std::chrono::microseconds est,
                                  std::chrono::microseconds budget) {
  if (!options_.enabled) return Status::OK();
  if (options_.max_pending > 0 && pending >= options_.max_pending) {
    rejections_.fetch_add(1, std::memory_order_relaxed);
    return Status::Unavailable(
        "admission control: backlog at capacity (" +
        std::to_string(pending) + " pending >= max_pending " +
        std::to_string(options_.max_pending) + ")");
  }
  if (budget.count() > 0 && est.count() > 0) {
    // This query plus the backlog ahead of it, drained `drain_width` fetches
    // at a time, each costing ~est: expected completion is est * (1 + ceil-ish
    // queue depth / width). If that already exceeds the deadline the query is
    // doomed before planning — shed it while it is still cheap to do so.
    const double expected_us =
        static_cast<double>(est.count()) *
        (1.0 +
         static_cast<double>(pending) / static_cast<double>(drain_width_));
    if (expected_us > static_cast<double>(budget.count())) {
      rejections_.fetch_add(1, std::memory_order_relaxed);
      return Status::Unavailable(
          "admission control: expected completion " +
          std::to_string(static_cast<long long>(expected_us)) + "us (" +
          std::to_string(pending) + " pending, ~" +
          std::to_string(static_cast<long long>(est.count())) +
          "us per trip) exceeds deadline " +
          std::to_string(static_cast<long long>(budget.count())) + "us");
    }
  }
  return Status::OK();
}

Status AdmissionController::EnterQuery() {
  size_t active = active_.load();
  do {
    if (max_queries_ > 0 && active >= max_queries_) {
      rejections_.fetch_add(1, std::memory_order_relaxed);
      return Status::Unavailable(
          "admission control: " + std::to_string(active) +
          " queries in flight >= max_inflight_queries " +
          std::to_string(max_queries_));
    }
  } while (!active_.compare_exchange_weak(active, active + 1));
  return Status::OK();
}

}  // namespace gencompact
