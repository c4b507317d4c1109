#ifndef GENCOMPACT_EXEC_LATENCY_TRACKER_H_
#define GENCOMPACT_EXEC_LATENCY_TRACKER_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <vector>

namespace gencompact {

/// Streaming quantile estimator for one target quantile — the P² algorithm
/// (Jain & Chlamtac, CACM 1985). Five markers track the running min, max,
/// the target quantile and its two flanking midpoints; each observation
/// adjusts marker heights by a piecewise-parabolic interpolation. O(1) space
/// and time per observation, no sample buffer — exactly what a per-source
/// latency digest needs when millions of sub-queries flow through.
///
/// Not thread-safe on its own; LatencyTracker serializes access.
class P2Quantile {
 public:
  explicit P2Quantile(double quantile);

  void Add(double x);

  /// The current estimate. Exact (order statistic of the sorted sample)
  /// until five observations have been seen; the P² marker estimate after.
  double Value() const;

  uint64_t count() const { return count_; }
  double quantile() const { return quantile_; }

 private:
  double ParabolicAdjust(int i, double d) const;

  double quantile_;
  uint64_t count_ = 0;
  std::array<double, 5> heights_{};    // marker heights q_i
  std::array<double, 5> positions_{};  // actual marker positions n_i (1-based)
  std::array<double, 5> desired_{};    // desired marker positions n'_i
  std::array<double, 5> increments_{}; // dn'_i per observation
};

/// Per-source streaming latency digest: a fixed set of P² estimators plus
/// count/mean/min/max, fed with the duration of every successful source
/// call. Owned by the catalog entry (like the circuit breaker) and shared
/// by every concurrent execution against that source, so the digest keeps
/// learning across queries. Thread-safe; Record() is a short mutex-guarded
/// constant-time update.
///
/// Consumers: the hedging executor (fire a backup attempt when a sub-query
/// exceeds the digest's p99), the breaker-aware cost penalty (inflate k1
/// when the tail is slow), and the /varz stats snapshot.
class LatencyTracker {
 public:
  /// Tracked quantiles; Quantile(q) answers from the nearest one.
  LatencyTracker() : LatencyTracker({0.5, 0.9, 0.95, 0.99}) {}
  explicit LatencyTracker(std::vector<double> quantiles);

  void Record(std::chrono::microseconds duration);

  /// The digest's estimate for `q`, answered by the tracked quantile
  /// closest to `q` (tracking arbitrary quantiles exactly would need a
  /// sample buffer, defeating the streaming design). Zero until the first
  /// observation.
  std::chrono::microseconds Quantile(double q) const;

  uint64_t count() const;

  /// Fraction of observations that were stragglers: calls slower than 2x the
  /// digest's running median at the moment they landed (counting starts once
  /// the median has a few samples behind it). This is the signal the adaptive
  /// hedge quantile feeds on — a source with a fat straggler tail should
  /// hedge earlier (lower quantile), a uniformly fast one later.
  double straggler_rate() const;

  struct Snapshot {
    uint64_t count = 0;
    std::chrono::microseconds mean{0};
    std::chrono::microseconds min{0};
    std::chrono::microseconds max{0};
    std::chrono::microseconds p50{0};
    std::chrono::microseconds p99{0};
    uint64_t stragglers = 0;
    double straggler_rate = 0.0;
  };
  Snapshot snapshot() const;

 private:
  /// Observations before straggler counting starts (median too noisy below).
  static constexpr uint64_t kStragglerMinSamples = 10;
  /// A straggler is an observation beyond this multiple of the running p50.
  static constexpr double kStragglerFactor = 2.0;

  mutable std::mutex mu_;
  std::vector<P2Quantile> estimators_;
  uint64_t count_ = 0;
  uint64_t stragglers_ = 0;
  uint64_t straggler_eligible_ = 0;  ///< observations judged for straggling
  double sum_us_ = 0;
  double min_us_ = 0;
  double max_us_ = 0;
};

/// Hedged-request policy for one Executor run. Off by default: the
/// zero-fault path never consults the digest, never arms a hedge timer, and
/// never sends a speculative call.
///
/// When enabled and a latency digest with at least `min_samples`
/// observations is available, each deduplicated source fetch is raced: a
/// timer on the executor's loop is armed at the digest's `quantile`
/// latency; if the primary attempt is still out when it fires, a hedge
/// attempt — a single breaker-gated source call — goes out too, and the
/// first success wins (a loser still on the wire is abandoned). Hedges draw
/// from the execution-wide retry-token budget (a hedged storm cannot
/// multiply load unboundedly) and are suppressed while the breaker is
/// half-open (probes must measure the source, not the race).
struct HedgePolicy {
  bool enabled = false;

  /// Digest quantile that arms the hedge timer (e.g. 0.99 = hedge past p99).
  double quantile = 0.99;

  /// Digest observations required before hedging arms; below this the
  /// estimate is noise and every fetch would hedge.
  uint64_t min_samples = 20;

  /// Floor/ceiling clamps for the hedge delay taken from the digest.
  /// A zero max means "no ceiling".
  std::chrono::microseconds min_delay{0};
  std::chrono::microseconds max_delay{0};

  /// When set, `quantile` is ignored and the hedge quantile is derived from
  /// the digest's measured straggler rate: hedge past the (1 - straggler
  /// rate) quantile, clamped to [min_quantile, max_quantile]. A source where
  /// 5% of calls straggle hedges past ~p95; one with no stragglers stays at
  /// max_quantile and almost never hedges.
  bool adaptive = false;
  double min_quantile = 0.90;
  double max_quantile = 0.99;
};

/// The quantile a hedge timer should arm at under `policy` given what
/// `tracker` has measured: `policy.quantile` when not adaptive, otherwise
/// 1 - straggler_rate clamped to the policy's [min_quantile, max_quantile].
double EffectiveHedgeQuantile(const HedgePolicy& policy,
                              const LatencyTracker& tracker);

}  // namespace gencompact

#endif  // GENCOMPACT_EXEC_LATENCY_TRACKER_H_
