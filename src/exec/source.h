#ifndef GENCOMPACT_EXEC_SOURCE_H_
#define GENCOMPACT_EXEC_SOURCE_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>

#include "common/result.h"
#include "exec/fault_policy.h"
#include "ssdl/check.h"
#include "storage/row_set.h"
#include "storage/table.h"

namespace gencompact {

/// One page request against a result-bounded source: start serving rows at
/// `offset` in the source's canonical (deterministic) result order. Offset 0
/// is the plain first call; a paging loop passes the previous response's
/// `next_offset` to continue.
struct PageRequest {
  uint64_t offset = 0;
  /// Sub-query identity for keyed fault schedules (FaultPolicy::
  /// keyed_schedule): executors stamp the hash of the sub-query key here so
  /// fault draws are a function of WHAT is being asked, not of global call
  /// order. Zero (the default) is a valid fingerprint for callers that do
  /// not care.
  uint64_t fingerprint = 0;
};

/// What a (possibly bounded) response says about itself — the "showing
/// 1-25 of 1000, next page ->" banner of a real web form.
struct PageInfo {
  bool bounded = false;      ///< a result bound was in force for this call
  uint64_t rows = 0;         ///< rows in this response
  uint64_t next_offset = 0;  ///< offset of the first row after this response
  bool has_more = false;     ///< rows beyond next_offset were withheld
};

/// A simulated Internet source: an in-memory relation behind a
/// capability-enforcing query interface. Execute() REJECTS any SP query the
/// SSDL description does not support — exactly like a real web form that
/// has no field for the condition you want — which is how the test suite
/// validates the paper's guarantee (1): plans emitted by the planners are
/// always accepted.
///
/// Beyond capability rejection, a Source can be configured with a
/// FaultPolicy that models the failure modes of a real Internet endpoint:
/// transient kUnavailable errors, stuck calls that burn a timeout and return
/// kDeadlineExceeded, slow calls, and hard outage windows. The schedule is
/// deterministic from the policy seed (see FaultInjector), which is what
/// lets the fault tests and the fault-sweep bench script outages exactly.
///
/// Execute() is thread-safe and almost lock-free: the capability check is
/// guarded by the Checker's own shared-mutex memo (PR 2), statistics are
/// atomic counters, and the table scan runs unlocked (tables are immutable
/// once registered), so concurrent queries from parallel plan children or
/// multiple mediator clients overlap on the expensive parts.
class Source {
 public:
  /// Both pointers must outlive the Source. `description` should be the
  /// same (commutativity-closed) description the planner used; enforcement
  /// against the closed description models the mediator's query "fixing"
  /// step of Section 6.1 (see DESIGN.md).
  Source(const Table* table, const SourceDescription* description)
      : table_(table), description_(description), checker_(description) {}

  const Table& table() const { return *table_; }
  const SourceDescription& description() const { return *description_; }

  /// Executes SP(cond, attrs, R) with set semantics — the scan is
  /// ScanTable over the table's column mirror (exec/scan.h); kUnsupported
  /// if the description does not accept the query;
  /// kUnavailable/kDeadlineExceeded when the configured fault policy
  /// injects a failure.
  ///
  /// When the description carries a result bound, the response is SILENTLY
  /// truncated to the first bound rows (in the source's canonical order) —
  /// exactly what a top-k web form does to a caller that ignores the "more
  /// results" banner. Callers that must notice use ExecutePage.
  Result<RowSet> Execute(const ConditionNode& cond, const AttributeSet& attrs);

  /// The paged form: serves the slice of the full answer starting at
  /// `request.offset` in the source's canonical order (Value-lexicographic,
  /// deterministic across calls and retries — the table is immutable), at
  /// most one bound/page worth of rows, and reports via `info` whether rows
  /// were withheld and where the next page starts. Unbounded sources answer
  /// fully at offset 0 and reject offset > 0; bounded but non-paging
  /// sources likewise reject offset > 0 (kUnsupported — a form with no
  /// "next page" link). Each call re-runs fault injection, the capability
  /// check, latency, and the scan: a page fetch is a full round trip.
  Result<RowSet> ExecutePage(const ConditionNode& cond,
                             const AttributeSet& attrs,
                             const PageRequest& request, PageInfo* info);

  /// The outcome of admitting one call, decided before the wire wait. The
  /// executor uses the split protocol — BeginCall, then a timer for
  /// `delay`, then FinishCall — so one thread can hold many calls "on the
  /// wire" at once; ExecutePage is exactly BeginCall + sleep + FinishCall.
  struct SourceCall {
    /// Wire wait the caller must serve before FinishCall (simulated round
    /// trip plus any injected slow/stuck penalty; zero for fast failures
    /// and capability rejections, which never reach the wire).
    std::chrono::microseconds delay{0};
    StatusCode fail_code = StatusCode::kOk;  ///< injected failure, if any
    const char* fail_reason = "";
    bool rejected = false;         ///< capability rejection (kUnsupported)
    bool paging_rejected = false;  ///< offset > 0 on a non-paging source
  };

  /// Phase 1 of a call: counts the query, draws the fault schedule, runs the
  /// capability and paging checks, computes the wire delay, and raises the
  /// in-flight gauge. Every BeginCall MUST be paired with exactly one
  /// FinishCall (even on the failure paths — FinishCall materializes the
  /// error) or AbandonCall, or the gauge leaks.
  SourceCall BeginCall(const ConditionNode& cond, const AttributeSet& attrs,
                       const PageRequest& request = {});

  /// Phase 2 for a call the caller gave up on before its wire wait ended
  /// (a hedge race loser): the call is never answered, and the in-flight
  /// gauge drops. Pairs with BeginCall in place of FinishCall.
  void AbandonCall() { inflight_.fetch_sub(1, std::memory_order_relaxed); }

  /// Phase 2, after the caller served `call.delay`: materializes the
  /// injected failure / rejection as a Status, or runs the scan and the
  /// bounded-page slice, and drops the in-flight gauge.
  Result<RowSet> FinishCall(const ConditionNode& cond,
                            const AttributeSet& attrs,
                            const PageRequest& request, const SourceCall& call,
                            PageInfo* info);

  /// Per-query latency of every call, modelling the Internet round trip the
  /// paper's k1 stands for: a real sleep in Execute(), a timer on the
  /// executor's clock under the split protocol, so independent sub-queries'
  /// round trips overlap. Default: no delay (unit tests stay fast).
  void set_simulated_latency(std::chrono::microseconds latency) {
    simulated_latency_us_.store(latency.count(), std::memory_order_relaxed);
  }
  std::chrono::microseconds simulated_latency() const {
    return std::chrono::microseconds(
        simulated_latency_us_.load(std::memory_order_relaxed));
  }

  /// Installs the fault model (an inactive policy still installs an
  /// injector, so tests can script FailNextN without random rates). Not
  /// thread-safe against in-flight Execute() calls: configure faults before
  /// starting concurrent traffic, like registration itself.
  void set_fault_policy(const FaultPolicy& policy) {
    fault_injector_ = std::make_unique<FaultInjector>(policy);
  }

  /// The live injector (null until set_fault_policy): tests use it to script
  /// `FailNextN` mid-run and to read injection counters.
  FaultInjector* fault_injector() { return fault_injector_.get(); }
  const FaultInjector* fault_injector() const { return fault_injector_.get(); }

  struct Stats {
    size_t queries_received = 0;
    size_t queries_answered = 0;
    size_t queries_rejected = 0;     ///< capability rejections (kUnsupported)
    size_t queries_unavailable = 0;  ///< injected kUnavailable / kDeadline
    uint64_t rows_returned = 0;
    uint64_t pages_served = 0;         ///< bounded responses (each is a page)
    uint64_t truncated_responses = 0;  ///< responses that withheld rows
    uint64_t inflight = 0;       ///< calls currently on the wire
    uint64_t peak_inflight = 0;  ///< high-water mark of the in-flight gauge
  };
  /// A snapshot of the atomic counters (consistent enough for tests and
  /// observability; individual counters never tear).
  Stats stats() const {
    Stats s;
    s.queries_received = queries_received_.load(std::memory_order_relaxed);
    s.queries_answered = queries_answered_.load(std::memory_order_relaxed);
    s.queries_rejected = queries_rejected_.load(std::memory_order_relaxed);
    s.queries_unavailable =
        queries_unavailable_.load(std::memory_order_relaxed);
    s.rows_returned = rows_returned_.load(std::memory_order_relaxed);
    s.pages_served = pages_served_.load(std::memory_order_relaxed);
    s.truncated_responses =
        truncated_responses_.load(std::memory_order_relaxed);
    s.inflight = inflight_.load(std::memory_order_relaxed);
    s.peak_inflight = peak_inflight_.load(std::memory_order_relaxed);
    return s;
  }

  /// Calls between BeginCall and FinishCall right now, and the high-water
  /// mark since the last reset — the bench's "outstanding sub-queries"
  /// metric. Under the event loop the peak is capped only by the in-flight
  /// limiter, not by threads.
  uint64_t inflight() const {
    return inflight_.load(std::memory_order_relaxed);
  }
  uint64_t peak_inflight() const {
    return peak_inflight_.load(std::memory_order_relaxed);
  }
  void ResetStats() {
    queries_received_.store(0, std::memory_order_relaxed);
    queries_answered_.store(0, std::memory_order_relaxed);
    queries_rejected_.store(0, std::memory_order_relaxed);
    queries_unavailable_.store(0, std::memory_order_relaxed);
    rows_returned_.store(0, std::memory_order_relaxed);
    pages_served_.store(0, std::memory_order_relaxed);
    truncated_responses_.store(0, std::memory_order_relaxed);
    peak_inflight_.store(inflight_.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
  }

 private:
  const Table* table_;
  const SourceDescription* description_;
  Checker checker_;  // internally synchronized (shared-mutex memo)
  std::unique_ptr<FaultInjector> fault_injector_;
  std::atomic<int64_t> simulated_latency_us_{0};
  std::atomic<size_t> queries_received_{0};
  std::atomic<size_t> queries_answered_{0};
  std::atomic<size_t> queries_rejected_{0};
  std::atomic<size_t> queries_unavailable_{0};
  std::atomic<uint64_t> rows_returned_{0};
  std::atomic<uint64_t> pages_served_{0};
  std::atomic<uint64_t> truncated_responses_{0};
  std::atomic<uint64_t> inflight_{0};
  std::atomic<uint64_t> peak_inflight_{0};
};

}  // namespace gencompact

#endif  // GENCOMPACT_EXEC_SOURCE_H_
