#ifndef GENCOMPACT_EXEC_EXECUTOR_H_
#define GENCOMPACT_EXEC_EXECUTOR_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/thread_pool.h"
#include "exec/circuit_breaker.h"
#include "exec/event_loop.h"
#include "exec/inflight_limiter.h"
#include "exec/latency_tracker.h"
#include "exec/retry_policy.h"
#include "exec/source.h"
#include "plan/plan.h"
#include "plan/sub_query_key.h"

namespace gencompact {

/// Per-execution transfer statistics — the "true cost" counterpart of the
/// estimate-based CostModel, used by the cost-model-validation experiment
/// (E7) and the motivating-example benchmark (E1). Counts are per *distinct*
/// source query: identical SP(C, A, R) sub-queries within one plan are
/// fetched once (see Executor), matching what a deduplicating mediator would
/// actually pay.
struct ExecStats {
  size_t source_queries = 0;
  uint64_t rows_transferred = 0;  ///< rows shipped from the source

  // Fault-tolerance counters (all zero when no faults occur and retries are
  // disabled, so the zero-fault path is indistinguishable from before).
  uint64_t retries = 0;              ///< re-attempts after retryable failures
  uint64_t failed_sub_queries = 0;   ///< sub-queries that failed after retries
  uint64_t breaker_rejections = 0;   ///< attempts refused by an open breaker
  uint64_t deadlines_exceeded = 0;   ///< sub-queries that blew their deadline
  uint64_t dropped_branches = 0;     ///< ∨-branches degraded away (partial answer)

  // Hedged-request counters (zero unless ExecOptions::hedge fires).
  uint64_t hedges_launched = 0;   ///< backup attempts raced past the digest quantile
  uint64_t hedges_won = 0;        ///< hedges whose success was adopted as the answer
  uint64_t hedges_cancelled = 0;  ///< primaries cancelled before ever starting

  // Result-bounded-source counters (zero unless a source declares a bound).
  uint64_t pages_fetched = 0;         ///< bounded responses consumed
  uint64_t truncated_sub_queries = 0; ///< sub-queries answered incompletely

  /// Equation-1 cost with the actual row counts.
  double TrueCost(double k1, double k2) const {
    return k1 * static_cast<double>(source_queries) +
           k2 * static_cast<double>(rows_transferred);
  }

  ExecStats& operator+=(const ExecStats& other) {
    source_queries += other.source_queries;
    rows_transferred += other.rows_transferred;
    retries += other.retries;
    failed_sub_queries += other.failed_sub_queries;
    breaker_rejections += other.breaker_rejections;
    deadlines_exceeded += other.deadlines_exceeded;
    dropped_branches += other.dropped_branches;
    hedges_launched += other.hedges_launched;
    hedges_won += other.hedges_won;
    hedges_cancelled += other.hedges_cancelled;
    pages_fetched += other.pages_fetched;
    truncated_sub_queries += other.truncated_sub_queries;
    return *this;
  }
};

/// Fault-tolerance configuration of one Executor. Default-constructed, the
/// executor behaves exactly like the pre-fault-tolerance one: no retries, no
/// breaker, errors propagate, and the system clock is never consulted.
struct ExecOptions {
  RetryPolicy retry;

  /// Per-source breaker shared across concurrent executions (owned by the
  /// catalog entry / caller); may be null.
  CircuitBreaker* breaker = nullptr;

  /// Time source for wire waits, backoff timers and deadlines; null =
  /// Clock::Real(). Without a shared loop it is also the clock of the
  /// executor's private loop, so a FakeClock runs every wait in virtual time.
  Clock* clock = nullptr;

  /// Absolute query-level deadline (on `clock`'s timeline); the zero
  /// time_point means none. Unlike RetryPolicy::sub_query_deadline — a
  /// per-fetch budget measured from each fetch's own start — this is one
  /// point every fetch in the execution shares: a fetch whose deadline has
  /// already passed fails fast without contacting the source, a backoff
  /// timer that would fire past it is never armed, and a limiter wait that
  /// outlives it fails instead of occupying the queue.
  std::chrono::steady_clock::time_point deadline{};

  /// Graceful degradation: a Union child that fails with a *retryable*
  /// status (after retries) is dropped from the answer instead of failing
  /// the plan, and recorded in dropped_sub_queries(). ∧/∩ branches and
  /// non-retryable errors still fail the plan.
  bool degrade_unions = false;

  /// Per-source latency digest shared across executions (owned by the
  /// catalog entry / caller); may be null. When set, the duration of every
  /// successful source call is recorded — hedging and the mediator's
  /// backlog gate read it.
  LatencyTracker* latency = nullptr;

  /// Hedged requests (see HedgePolicy in latency_tracker.h). Only effective
  /// with a `latency` digest.
  HedgePolicy hedge;

  /// Partial paging prefixes: when a bounded source's paging loop fails
  /// retryably *after* at least one page landed (breaker trip, retry-budget
  /// exhaustion, persistent transient), keep the pages already fetched as a
  /// truncated partial answer — recorded in truncation_records() — instead
  /// of failing the sub-query. Off (default): a mid-loop failure fails the
  /// whole sub-query, exactly like an unbounded fetch.
  bool partial_pages = false;

  /// Shared in-flight limiter (owned by the mediator); may be null. Each
  /// source round trip holds one permit for exactly the duration of its
  /// wire wait — permits are released across backoff timers, and hedges
  /// only launch when TryAcquire succeeds (optional load never queues).
  /// The limiter is loop-confined: set it only together with the shared
  /// loop every other user of the limiter runs on.
  InflightLimiter* limiter = nullptr;
  /// The source's catalog id — the limiter's per-source accounting key.
  uint32_t source_id = 0;
};

/// True when `deadline` is set (not the zero time_point) and `clock`
/// (null = Clock::Real()) has reached it.
bool DeadlinePassed(Clock* clock,
                    std::chrono::steady_clock::time_point deadline);

/// Whether a query that failed with `code` may start a recovery run (a
/// re-plan around what failed) under its `deadline`. Without a deadline it
/// may. With one, not once it has passed, and not after a kDeadlineExceeded:
/// the executor gives up as soon as the next backoff would overshoot the
/// deadline, so a new run would end past it.
bool RecoveryFits(Clock* clock, std::chrono::steady_clock::time_point deadline,
                  StatusCode code);

/// One sub-query whose answer provably misses rows: a result-bounded source
/// stopped shipping before exhaustion. The recovered rows are a *lower
/// bound* on the true answer (pages are disjoint slices of it), which is
/// exactly what the completeness marker on a partial answer must say.
struct TruncationRecord {
  SubQueryKey key;                ///< identity, for avoid-set re-planning
  std::string source;             ///< the bounded source's name
  std::string sub_query;          ///< human-readable SP(C, A, R) rendering
  uint64_t bound = 0;             ///< the result bound that was hit
  uint64_t rows_lower_bound = 0;  ///< rows recovered before the cut
  std::string reason;             ///< why the loop stopped (bound/limit/fault)
};

/// One sub-query an execution fetched, and the rows of its published answer
/// (every page of it): the actual row counts EXPLAIN ANALYZE reports.
struct FetchRecord {
  SubQueryKey key;
  uint64_t rows = 0;
};

/// Executes resolved plans against one source, performing the mediator
/// postprocessing operations (selection, projection, union, intersection —
/// Section 3) with set semantics.
///
/// The plan's Union/Intersect/SP DAG runs as a graph of continuation tasks
/// on an EventLoop: every child of a set operation starts at once, and
/// everything that waits — the simulated wire wait of a source round trip,
/// a retry's backoff, a hedge delay, a paging loop's next page — is a timer
/// event, not a parked thread. So the children of a union overlap their
/// round trips on one thread. All execution state is loop-confined: no
/// locks anywhere in the walk.
///
/// Two drivers share that engine:
///   - Execute() with no shared loop builds a private manual loop on
///     ExecOptions::clock and pumps it on the calling thread until the
///     answer lands (under a FakeClock every wait elapses in virtual time);
///   - with a shared threaded loop, ExecuteAsync() runs the plan there and
///     hands the answer to a callback, and Execute() submits and waits.
/// A ThreadPool, when given, takes the CPU-bound scans (Source::FinishCall)
/// off the thread driving the loop whenever it has something else to do:
/// always on a shared loop, on a private one only while another round trip
/// on that loop is out (EventLoop::round_trips() counts every execution the
/// loop runs). Otherwise scans run on the driving thread.
///
/// Source answers arrive from Source::FinishCall's scan (ScanTable on the
/// table's column mirror, exec/scan.h). A mediator SP node filters its
/// child's rows one by one (FilterRows); a union or intersection merges
/// its children's answers in place.
///
/// Each distinct SP(C, A, R) is sent to the source once per execution:
/// duplicates wait on the first fetch. A fetch that ultimately fails is
/// evicted from the dedup map before its waiters wake, and they re-fetch,
/// so a transient failure is never inherited within one execution.
///
/// Every fetch is a page loop: a result-bounded source's answer arrives
/// page by page, an unbounded source's in one page. With ExecOptions, each
/// page additionally runs under the configured retry/backoff/deadline
/// discipline and per-source circuit breaker, and Union children may
/// degrade instead of failing (see ExecOptions). With ExecOptions::hedge
/// enabled, an unbounded source's fetch that outlives the source's
/// digest-estimated tail latency is raced against a second attempt; the
/// first completion wins and a loser still on the wire is abandoned.
class Executor {
 public:
  /// `source` must outlive the executor; `pool` (scan offload) and `loop`
  /// (a shared loop; null = a private one per Execute) may be null.
  explicit Executor(Source* source, ThreadPool* pool = nullptr,
                    ExecOptions options = {}, EventLoop* loop = nullptr);

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Runs `plan` and blocks until the answer lands; kUnsupported propagates
  /// if the source rejects a query (only possible for plans produced by
  /// non-capability-aware baselines); kUnavailable/kDeadlineExceeded
  /// propagate when faults exhaust the retry discipline (unless degraded
  /// away, see ExecOptions::degrade_unions). With a shared loop, must not be
  /// called from the loop thread.
  Result<RowSet> Execute(const PlanNode& plan);

  /// Non-blocking execution on the shared loop (required): `done` runs on
  /// the loop thread once the answer is ready. The caller keeps this
  /// executor alive until `done` fires; the accessors below are valid from
  /// inside `done` onward.
  void ExecuteAsync(PlanPtr plan, std::function<void(Result<RowSet>)> done);

  /// Transfer counters, accumulated over every execution since
  /// construction or the last ResetStats().
  ExecStats stats() const { return stats_; }
  void ResetStats() { stats_ = ExecStats(); }

  /// Human-readable descriptions of the ∨-branches dropped by the last
  /// execution (empty unless degrade_unions fired) — the completeness
  /// annotation of a partial answer.
  std::vector<std::string> dropped_sub_queries() const { return dropped_; }

  /// Identities of the sub-queries that failed with a retryable status in
  /// the last execution — the avoid-set for re-planning around them.
  std::vector<SubQueryKey> failed_sub_query_keys() const {
    return failed_keys_;
  }

  /// Sub-queries whose answers are provably incomplete in the last
  /// execution — a result-bounded source stopped before exhaustion (no
  /// paging, access limit, or a tolerated mid-loop failure). Empty for
  /// unbounded sources and whenever every paging loop ran to exhaustion.
  std::vector<TruncationRecord> truncation_records() const {
    return truncated_;
  }

  /// The sub-queries the last execution fetched successfully, one record per
  /// distinct SP(C, A, R), in the order their answers were published.
  std::vector<FetchRecord> fetch_records() const { return fetch_records_; }

 private:
  /// Folds one finished execution into the accessors above.
  void Absorb(ExecStats stats, std::vector<std::string> dropped,
              std::vector<SubQueryKey> failed_keys,
              std::vector<TruncationRecord> truncated,
              std::vector<FetchRecord> fetched);

  Source* source_;
  ThreadPool* pool_;
  ExecOptions options_;
  EventLoop* loop_;

  // Written on the thread that drives the loop, when an execution ends; the
  // blocking return (or the `done` callback) publishes them to the caller.
  ExecStats stats_;
  std::vector<std::string> dropped_;
  std::vector<SubQueryKey> failed_keys_;
  std::vector<TruncationRecord> truncated_;
  std::vector<FetchRecord> fetch_records_;
};

}  // namespace gencompact

#endif  // GENCOMPACT_EXEC_EXECUTOR_H_
