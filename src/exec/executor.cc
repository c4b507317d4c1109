#include "exec/executor.h"

#include <algorithm>
#include <cassert>
#include <future>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/backoff.h"
#include "exec/scan.h"

namespace gencompact {
namespace {

using Cb = std::function<void(Result<RowSet>)>;
using CallCb = std::function<void(Result<RowSet>, PageInfo)>;

/// One deduplicated fetch slot in the loop-confined dedup map. Invariant:
/// an entry with done == true always holds a success — failed fetches are
/// evicted before anyone can observe them done, and so is an answer taken.
struct FetchEntry {
  bool done = false;
  Result<RowSet> result = Status::Internal("fetch not completed");
  struct Waiter {
    const PlanNode* plan = nullptr;  // pinned by ExecState::root
    Cb cb;
  };
  std::vector<Waiter> waiters;
};

/// Everything one execution owns. Loop-confined: every field except the
/// collaborators behind the pointers is touched only from loop-thread
/// continuations, so there are no locks anywhere in the DAG walk. Kept
/// alive by shared_ptr from every pending continuation — the losing side of
/// a hedge race may outlive the published answer (and, on a shared loop,
/// the Executor itself).
struct ExecState {
  Source* source = nullptr;
  EventLoop* loop = nullptr;
  ThreadPool* pool = nullptr;  // scan offload; may be null
  ExecOptions opts;
  PlanPtr root;  // pins every PlanNode* the waiters hold

  std::unordered_map<SubQueryKey, std::shared_ptr<FetchEntry>, SubQueryKeyHash>
      fetches;
  /// Per key, the plan occurrences not answered yet (see Answer).
  std::unordered_map<SubQueryKey, size_t, SubQueryKeyHash> consumers;
  /// Execution-wide retry/hedge token pool.
  size_t budget = 0;

  /// Folded into the Executor when the root completes. Late increments from
  /// abandoned primaries are structurally impossible: every counter
  /// mutation sits behind a `completed` check.
  ExecStats stats;
  std::vector<std::string> dropped;
  std::vector<SubQueryKey> failed_keys;
  std::vector<TruncationRecord> truncated;
  std::vector<FetchRecord> fetch_records;
};

using StatePtr = std::shared_ptr<ExecState>;

void ExecNode(const StatePtr& st, const PlanNode& plan, Cb cb);
void ExecSource(const StatePtr& st, const PlanNode& plan, Cb cb);

std::chrono::microseconds Since(Clock* clock,
                                std::chrono::steady_clock::time_point from) {
  return std::chrono::duration_cast<std::chrono::microseconds>(clock->Now() -
                                                               from);
}

bool HasDeadline(const ExecOptions& opts) {
  return opts.deadline != std::chrono::steady_clock::time_point{};
}

/// The earlier of the execution deadline and `start` + the sub-query
/// deadline (zero = none): how long a fetch may queue for a limiter permit.
std::chrono::steady_clock::time_point PermitDeadline(
    const ExecOptions& opts, std::chrono::steady_clock::time_point start) {
  std::chrono::steady_clock::time_point deadline = opts.deadline;
  if (opts.retry.sub_query_deadline.count() > 0) {
    const auto sub_deadline = start + opts.retry.sub_query_deadline;
    deadline = HasDeadline(opts) ? std::min(deadline, sub_deadline)
                                 : sub_deadline;
  }
  return deadline;
}

/// A capability rejection is an *answer* — the source is healthy. Only
/// unavailable/timeout outcomes count against its health.
void ReportToBreaker(CircuitBreaker* breaker, bool retryable_failure) {
  if (breaker == nullptr) return;
  if (retryable_failure) {
    breaker->OnFailure();
  } else {
    breaker->OnSuccess();
  }
}

/// The gate in front of every attempt: a query deadline that already passed
/// fails it without contacting the source (nobody is waiting for the
/// answer), and so does an open breaker, which ends the retry chain.
Status AdmitAttempt(ExecState& st, size_t attempt) {
  if (DeadlinePassed(st.opts.clock, st.opts.deadline)) {
    st.stats.deadlines_exceeded += 1;
    return Status::DeadlineExceeded(
        "query deadline expired before attempt " + std::to_string(attempt) +
        " against source '" + st.source->description().source_name() + "'");
  }
  if (st.opts.breaker != nullptr && !st.opts.breaker->Allow()) {
    st.stats.breaker_rejections += 1;
    return Status::Unavailable(
        "circuit breaker open for source '" +
        st.source->description().source_name() +
        "': failing fast without contacting the source");
  }
  return Status::OK();
}

/// Reports an admitted attempt's outcome to the breaker and, on success,
/// its latency to the digest. True when the attempt failed retryably.
bool SettleAttempt(ExecState& st, const Result<RowSet>& result,
                   std::chrono::steady_clock::time_point attempt_start) {
  const bool retryable = !result.ok() && IsRetryable(result.status().code());
  ReportToBreaker(st.opts.breaker, retryable);
  if (result.ok() && st.opts.latency != nullptr) {
    st.opts.latency->Record(Since(st.opts.clock, attempt_start));
  }
  return retryable;
}

/// The retry discipline after a retryable failure of attempt `attempt` of
/// a chain that started at `start`: true with the backoff before the next
/// attempt (one budget token spent), or false with `*result` the chain's
/// verdict — the attempt cap, a sub-query or query deadline the backoff
/// would overshoot (a timer that can only wake up "too late" is never
/// armed), or a spent budget.
bool NextRetry(ExecState& st, DecorrelatedJitterBackoff* backoff,
               size_t attempt, std::chrono::steady_clock::time_point start,
               Result<RowSet>* result, std::chrono::microseconds* delay) {
  const RetryPolicy& retry = st.opts.retry;
  if (attempt >= retry.max_attempts) return false;
  *delay = backoff->NextDelay();
  if (retry.sub_query_deadline.count() > 0 &&
      Since(st.opts.clock, start) + *delay > retry.sub_query_deadline) {
    st.stats.deadlines_exceeded += 1;
    *result = Status::DeadlineExceeded(
        "sub-query deadline exceeded after " + std::to_string(attempt) +
        " attempt(s); last error: " + result->status().message());
    return false;
  }
  if (HasDeadline(st.opts) &&
      st.opts.clock->Now() + *delay > st.opts.deadline) {
    st.stats.deadlines_exceeded += 1;
    *result = Status::DeadlineExceeded(
        "query deadline exceeded after " + std::to_string(attempt) +
        " attempt(s); last error: " + result->status().message());
    return false;
  }
  if (st.budget == 0) return false;  // execution budget spent
  --st.budget;
  st.stats.retries += 1;
  return true;
}

/// Returns a limiter permit the attempt holds, if any.
void ReleasePermit(ExecState& st, bool* holds_permit) {
  if (!*holds_permit) return;
  *holds_permit = false;
  st.opts.limiter->Release(st.opts.source_id);
}

/// The second half of a round trip: FinishCall (the scan), then the verdict
/// to `then` on the loop. The scan goes to the pool only when the thread
/// driving the loop has something else to do meanwhile: always on a shared
/// loop, and on a private one while another round trip on that loop is out
/// (of this execution, or of a sibling one, such as a join's other bind
/// batches). Otherwise the hand-off would only add two thread switches to a
/// caller that is waiting anyway. FinishCall touches only the Source's
/// atomics, so running it off the loop is safe.
void FinishRoundTrip(const StatePtr& st, const ConditionPtr& cond,
                     const AttributeSet& attrs, const PageRequest& request,
                     const Source::SourceCall& call, CallCb then) {
  const bool scans = call.fail_code == StatusCode::kOk && !call.rejected &&
                     !call.paging_rejected;
  const bool offload = st->pool != nullptr && scans &&
                       (!st->loop->manual() || st->loop->round_trips() > 1);
  if (!offload) {
    PageInfo info;
    Result<RowSet> result =
        st->source->FinishCall(*cond, attrs, request, call, &info);
    st->loop->EndRoundTrip();
    then(std::move(result), info);
    return;
  }
  st->pool->Post([st, cond, attrs, request, call, then = std::move(then)]() {
    PageInfo info;
    Result<RowSet> result =
        st->source->FinishCall(*cond, attrs, request, call, &info);
    st->loop->Post([st, info, then, result = std::move(result)]() mutable {
      st->loop->EndRoundTrip();
      then(std::move(result), info);
    });
  });
}

/// One source round trip on the loop: BeginCall now, FinishCall once the
/// call's wire wait has elapsed on the loop's clock — a timer, not a parked
/// thread — then `then` with the verdict. While the wait runs, `*wire` holds
/// its timer, so the winner of a hedge race can abandon the call; the timer
/// resets it. `wire` lives in the op that `then` pins.
void RoundTrip(const StatePtr& st, const ConditionPtr& cond,
               const AttributeSet& attrs, const PageRequest& request,
               EventLoop::TimerId* wire, CallCb then) {
  const Source::SourceCall call = st->source->BeginCall(*cond, attrs, request);
  st->loop->BeginRoundTrip();
  if (call.delay.count() <= 0) {
    FinishRoundTrip(st, cond, attrs, request, call, std::move(then));
    return;
  }
  *wire = st->loop->ScheduleAfter(
      call.delay, [st, cond, attrs, request, call, wire, then]() mutable {
        *wire = 0;
        FinishRoundTrip(st, cond, attrs, request, call, std::move(then));
      });
}

/// Hands a published answer to one consumer of `key`: a copy while other
/// plan occurrences of the key are still to be answered, else the answer
/// itself, and its emptied (done, so mapped) entry leaves the map.
Result<RowSet> Answer(ExecState& st, const SubQueryKey& key,
                      FetchEntry& entry) {
  size_t& waiting = st.consumers[key];
  assert(waiting > 0 && "a consumer the plan walk did not count");
  if (--waiting > 0 || !entry.result.ok()) return entry.result;
  st.fetches.erase(key);
  return std::move(entry.result);
}

/// The state machine of one deduplicated fetch: a page loop. Each page runs
/// the one retry chain — a limiter permit (StartPage, Acquire), the
/// admission gate and the round trip at PageRequest{offset, fingerprint}
/// (BeginAttempt), then settle and backoff (OnAttemptResult) — and the
/// chain's verdict folds into the answer (FoldPage). The loop drives offsets
/// until the source reports exhaustion (an exact answer), the interface runs
/// out of pages or accesses, or a tolerated mid-loop failure cuts it short
/// (both partial, recorded as truncations). An unbounded source is the
/// one-page case: FinishCall always reports has_more = false for it, and
/// only that single page may be hedged (see ArmHedge). Single-threaded:
/// every transition runs on the loop thread (scan offloads post their
/// result back), so the flags below need no synchronization.
struct FetchOp {
  FetchOp(StatePtr state, const PlanNode& plan, const SubQueryKey& k,
          std::shared_ptr<FetchEntry> e, Cb cb)
      : st(std::move(state)),
        entry(std::move(e)),
        condition(plan.condition()),
        attrs(plan.attrs()),
        key(k),
        fingerprint(FaultFingerprint(*condition, attrs)),
        owner_cb(std::move(cb)) {}

  StatePtr st;
  std::shared_ptr<FetchEntry> entry;
  ConditionPtr condition;  // pins the interned condition
  AttributeSet attrs;
  SubQueryKey key;
  uint64_t fingerprint;  // of the key: keyed faults and backoff seeds
  Cb owner_cb;
  bool completed = false;  ///< the answer for this fetch was published

  RowSet acc;  ///< the pages landed so far
  uint64_t offset = 0;
  uint64_t pages = 0;
  PageInfo info;  ///< the banner of the attempt that landed last

  // The current page's retry chain, reset by StartPage.
  std::optional<DecorrelatedJitterBackoff> backoff;
  std::chrono::steady_clock::time_point start{};
  std::chrono::steady_clock::time_point attempt_start{};
  /// Absolute bound for limiter waits (see PermitDeadline).
  std::chrono::steady_clock::time_point permit_deadline{};
  size_t attempt = 0;
  bool holds_permit = false;
  bool in_flight = false;  ///< an attempt of the chain is on the wire
  bool concluded = false;  ///< the chain produced its verdict
  Result<RowSet> verdict = Status::Internal("page not concluded");
  EventLoop::TimerId wire = 0;

  // The hedge of an unbounded source's single page.
  std::chrono::steady_clock::time_point hedge_start{};
  EventLoop::TimerId hedge_timer = 0;
  bool hedge_armed = false;
  bool hedge_in_flight = false;
  bool hedge_holds_permit = false;
  EventLoop::TimerId hedge_wire = 0;
};

using OpPtr = std::shared_ptr<FetchOp>;

void Acquire(const OpPtr& op);
void BeginAttempt(const OpPtr& op);
void OnAttemptResult(const OpPtr& op, Result<RowSet> result);
void Conclude(const OpPtr& op, Result<RowSet> result);
void FoldPage(const OpPtr& op, Result<RowSet> result);
void OnHedgeResult(const OpPtr& op, Result<RowSet> result, bool admitted);

/// First completion wins: the other attempt, if still in its wire wait, is
/// abandoned — never answered, its breaker slot and permit returned. A wire
/// timer already due in the loop's current batch cannot be cancelled; that
/// attempt finishes normally and its late verdict is dropped.
void Abandon(const OpPtr& op, EventLoop::TimerId* wire, bool* holds_permit) {
  ExecState& st = *op->st;
  if (*wire == 0 || !st.loop->Cancel(*wire)) return;
  *wire = 0;
  st.loop->EndRoundTrip();
  st.source->AbandonCall();
  if (st.opts.breaker != nullptr) st.opts.breaker->OnAbandon();
  ReleasePermit(st, holds_permit);
}

/// Publishes the fetch's answer into the dedup map and wakes everyone — the
/// one tail of every fetch, whether its page loop, its hedge or a failure
/// ends it. A hedge still armed is cancelled and an attempt still on the
/// wire abandoned. Success stays in the map for duplicates still to come;
/// failure is evicted FIRST, so a retryable-failure waiter that re-enters
/// finds the doomed entry gone (or replaced by a fresh in-flight fetch).
void Publish(const OpPtr& op, Result<RowSet> result) {
  op->completed = true;
  if (op->hedge_armed) {
    op->st->loop->Cancel(op->hedge_timer);
    op->hedge_armed = false;
  }
  Abandon(op, &op->wire, &op->holds_permit);
  Abandon(op, &op->hedge_wire, &op->hedge_holds_permit);
  const StatePtr& st = op->st;
  FetchEntry& entry = *op->entry;
  const bool ok = result.ok();
  const bool retryable = !ok && IsRetryable(result.status().code());
  if (ok) {
    st->stats.source_queries += 1;
    st->stats.rows_transferred += result->size();
    st->fetch_records.push_back({op->key, result->size()});
    entry.done = true;
  } else {
    st->stats.failed_sub_queries += 1;
    if (retryable) st->failed_keys.push_back(op->key);
    const auto it = st->fetches.find(op->key);
    if (it != st->fetches.end() && it->second == op->entry) {
      st->fetches.erase(it);
    }
  }
  // Answer hands it to each consumer: a copy, or itself to the last one.
  entry.result = std::move(result);
  std::vector<FetchEntry::Waiter> waiters = std::move(entry.waiters);
  entry.waiters.clear();
  const Cb owner = std::move(op->owner_cb);
  owner(Answer(*st, op->key, entry));
  for (FetchEntry::Waiter& w : waiters) {
    if (ok || !retryable) {
      w.cb(Answer(*st, op->key, entry));
    } else {
      // The owner failed retryably and evicted the entry: re-enter the
      // dedup race instead of inheriting the doomed result.
      ExecSource(st, *w.plan, std::move(w.cb));
    }
  }
}

/// Publishes the pages landed so far as a truncated answer, with the marker
/// that names what is missing.
void PublishTruncated(const OpPtr& op, std::string reason) {
  ExecState& st = *op->st;
  st.stats.truncated_sub_queries += 1;
  TruncationRecord record;
  record.key = op->key;
  record.source = st.source->description().source_name();
  record.sub_query = "SP(" + op->condition->ToString() + ", " +
                     op->attrs.ToString(st.source->table().schema()) + ")";
  record.bound = st.source->description().result_bound().result_bound;
  record.rows_lower_bound = op->acc.size();
  record.reason = std::move(reason);
  st.truncated.push_back(std::move(record));
  Publish(op, std::move(op->acc));
}

/// Starts the retry chain of the page at `op->offset`. Its backoff is seeded
/// per (sub-query, offset), so successive pages do not share jitter (offset
/// 0 is the plain sub-query seed), and its start is the page's own, so a
/// retried page gets its own sub-query deadline, not what the loop left.
void StartPage(const OpPtr& op) {
  ExecState& st = *op->st;
  op->backoff.emplace(st.opts.retry.backoff,
                      st.opts.retry.seed ^ op->fingerprint ^ op->offset);
  op->start = st.opts.clock->Now();
  op->permit_deadline = PermitDeadline(st.opts, op->start);
  op->attempt = 0;
  op->concluded = false;
  Acquire(op);
}

void Acquire(const OpPtr& op) {
  if (op->completed) return;  // hedge won while we slept in backoff
  InflightLimiter* limiter = op->st->opts.limiter;
  if (limiter == nullptr) {
    BeginAttempt(op);
    return;
  }
  limiter->Acquire(op->st->opts.source_id, op->permit_deadline,
                   [op](Status status) {
                     if (op->completed) {
                       // Published while we queued: give the slot straight
                       // back, nothing left to do.
                       if (status.ok()) {
                         op->st->opts.limiter->Release(op->st->opts.source_id);
                       }
                       return;
                     }
                     if (!status.ok()) {
                       op->st->stats.deadlines_exceeded += 1;
                       Conclude(op, Status::DeadlineExceeded(status.message()));
                       return;
                     }
                     op->holds_permit = true;
                     BeginAttempt(op);
                   });
}

void BeginAttempt(const OpPtr& op) {
  ExecState& st = *op->st;
  Status admitted = AdmitAttempt(st, ++op->attempt);
  if (!admitted.ok()) {
    Conclude(op, std::move(admitted));
    return;
  }
  op->attempt_start =
      st.opts.latency != nullptr ? st.opts.clock->Now() : op->start;
  op->in_flight = true;
  // A retried page re-requests the SAME offset: the source's canonical
  // order is deterministic, so the retry ships exactly the rows the failed
  // attempt would have — no duplicates, no gaps.
  RoundTrip(op->st, op->condition, op->attrs,
            PageRequest{op->offset, op->fingerprint}, &op->wire,
            [op](Result<RowSet> result, PageInfo info) {
              op->info = info;
              OnAttemptResult(op, std::move(result));
            });
}

void OnAttemptResult(const OpPtr& op, Result<RowSet> result) {
  ExecState& st = *op->st;
  op->in_flight = false;
  std::chrono::microseconds delay{0};
  // Once the hedge has won and published, the chain concludes without
  // touching the execution's counters again.
  if (!SettleAttempt(st, result, op->attempt_start) || op->completed ||
      !NextRetry(st, &*op->backoff, op->attempt, op->start, &result, &delay)) {
    Conclude(op, std::move(result));
    return;
  }
  // Free the wire slot for the duration of the backoff — a source at its
  // cap should serve someone else while this fetch cools off.
  ReleasePermit(st, &op->holds_permit);
  st.loop->ScheduleAfter(delay, [op] { Acquire(op); });
}

/// The page's retry chain produced its verdict: fold it, unless the hedge
/// already published (the late verdict is dropped) or a failure must wait
/// for a hedge still on the wire, which may yet save the fetch.
void Conclude(const OpPtr& op, Result<RowSet> result) {
  op->concluded = true;
  ReleasePermit(*op->st, &op->holds_permit);
  if (op->completed) return;
  if (!result.ok() && op->hedge_in_flight) {
    op->verdict = std::move(result);  // OnHedgeResult decides
    return;
  }
  FoldPage(op, std::move(result));
}

/// Folds a page's verdict into the answer. A failure fails the fetch, except
/// that with partial_pages a retryable one after at least one landed page
/// keeps that prefix as a truncated answer — breaker trips, budget
/// exhaustion and persistent transients degrade instead of discarding rows
/// already paid for. A landed page becomes the answer (the first, moved) or
/// merges into it; the loop ends when the source is exhausted (exact), or
/// truncated when its interface has no next page to give.
void FoldPage(const OpPtr& op, Result<RowSet> result) {
  ExecState& st = *op->st;
  if (!result.ok()) {
    if (op->pages > 0 && st.opts.partial_pages &&
        IsRetryable(result.status().code())) {
      PublishTruncated(op, "paging interrupted: " + result.status().message());
      return;
    }
    Publish(op, std::move(result));
    return;
  }
  const ResultBound& bound = st.source->description().result_bound();
  ++op->pages;
  if (bound.bounded()) st.stats.pages_fetched += 1;
  if (op->pages == 1) {
    op->acc = std::move(result).value();
  } else {
    op->acc.MergeFrom(std::move(result).value());
  }
  if (!op->info.has_more) {
    Publish(op, std::move(op->acc));
  } else if (!bound.supports_paging) {
    PublishTruncated(op, "result bound " + std::to_string(bound.result_bound) +
                             " hit and the source does not page");
  } else if (bound.max_accesses > 0 && op->pages >= bound.max_accesses) {
    PublishTruncated(op, "access limit " + std::to_string(bound.max_accesses) +
                             " reached with rows remaining");
  } else {
    op->offset = op->info.next_offset;
    StartPage(op);
  }
}

void OnHedgeTimer(const OpPtr& op) {
  ExecState& st = *op->st;
  op->hedge_armed = false;
  if (op->completed || op->concluded) return;
  CircuitBreaker* breaker = st.opts.breaker;
  if (breaker != nullptr &&
      breaker->state() == CircuitBreaker::State::kHalfOpen) {
    return;  // probes must measure the source, not the race
  }
  InflightLimiter* limiter = st.opts.limiter;
  if (limiter != nullptr && !limiter->TryAcquire(st.opts.source_id)) {
    return;  // hedges are optional load: never queue for a permit
  }
  if (st.budget == 0) {
    // Hedges and retries draw from one pool — a hedge storm is bounded.
    if (limiter != nullptr) limiter->Release(st.opts.source_id);
    return;
  }
  --st.budget;
  op->hedge_holds_permit = limiter != nullptr;
  st.stats.hedges_launched += 1;
  if (breaker != nullptr && !breaker->Allow()) {
    st.stats.breaker_rejections += 1;
    OnHedgeResult(op,
                  Status::Unavailable("circuit breaker open for source '" +
                                      st.source->description().source_name() +
                                      "': hedge attempt failing fast"),
                  /*admitted=*/false);
    return;
  }
  // One breaker-gated speculative call — a hedge is a bet that a second
  // sample beats the primary's tail, not a second retry discipline.
  op->hedge_start = st.opts.clock->Now();
  op->hedge_in_flight = true;
  RoundTrip(op->st, op->condition, op->attrs,
            PageRequest{op->offset, op->fingerprint}, &op->hedge_wire,
            [op](Result<RowSet> result, PageInfo) {
              OnHedgeResult(op, std::move(result), /*admitted=*/true);
            });
}

void OnHedgeResult(const OpPtr& op, Result<RowSet> result, bool admitted) {
  ExecState& st = *op->st;
  op->hedge_in_flight = false;
  if (admitted) SettleAttempt(st, result, op->hedge_start);
  ReleasePermit(st, &op->hedge_holds_permit);
  if (op->completed) return;
  if (result.ok()) {
    // First success wins, and an unbounded source's one page is its whole
    // answer.
    st.stats.hedges_won += 1;
    if (!op->in_flight && !op->concluded) {
      // The primary never reached the source (backoff timer or permit
      // queue): cancelled outright.
      st.stats.hedges_cancelled += 1;
    }
    Publish(op, std::move(result));
    return;
  }
  if (op->concluded) {
    // Hedge lost and the primary's verdict is already in: surface it.
    FoldPage(op, std::move(op->verdict));
  }
  // Else: hedge lost, primary still running — it folds on conclusion.
}

/// Arms the hedge of an unbounded source's single page, once against the
/// whole retry chain: when the fetch outlives the source's digest-estimated
/// tail latency, one backup attempt races it (OnHedgeTimer). A bounded
/// fetch never hedges: its pages advance in order, and racing a paging
/// conversation against itself would interleave offsets.
void ArmHedge(const OpPtr& op) {
  const ExecState& st = *op->st;
  const HedgePolicy& hedge = st.opts.hedge;
  LatencyTracker* latency = st.opts.latency;
  if (st.source->description().result_bound().bounded() || !hedge.enabled ||
      latency == nullptr || latency->count() < hedge.min_samples) {
    return;
  }
  std::chrono::microseconds delay =
      latency->Quantile(EffectiveHedgeQuantile(hedge, *latency));
  delay = std::max(delay, hedge.min_delay);
  if (hedge.max_delay.count() > 0) delay = std::min(delay, hedge.max_delay);
  op->hedge_armed = true;
  op->hedge_timer = st.loop->ScheduleAfter(delay, [op] { OnHedgeTimer(op); });
}

void ExecSource(const StatePtr& st, const PlanNode& plan, Cb cb) {
  // Dedup key of one SP(C, A, R): interned condition id + projection bits.
  const SubQueryKey key(*plan.condition(), plan.attrs());
  const auto it = st->fetches.find(key);
  if (it != st->fetches.end()) {
    if (it->second->done) {
      // Done entries always hold a success (Answer may erase this one).
      const std::shared_ptr<FetchEntry> entry = it->second;
      cb(Answer(*st, key, *entry));
      return;
    }
    it->second->waiters.push_back(FetchEntry::Waiter{&plan, std::move(cb)});
    return;
  }
  auto entry = std::make_shared<FetchEntry>();
  st->fetches.emplace(key, entry);
  const auto op =
      std::make_shared<FetchOp>(st, plan, key, std::move(entry), std::move(cb));
  ArmHedge(op);
  StartPage(op);
}

/// Combine of one Union/Intersect once every child completed: the first
/// error in plan order wins, degrade drops retryable ∨-branches, and the
/// rest combine in place, merged into the largest child (∪) or erased from
/// the smallest (∩). Rows move with their cached hashes, never re-hashed.
Result<RowSet> CombineSetOp(const StatePtr& st, const PlanNode& plan,
                            std::vector<std::optional<Result<RowSet>>>& results) {
  const std::vector<PlanPtr>& children = plan.children();
  const bool is_union = plan.kind() == PlanNode::Kind::kUnion;
  const bool degrade = st->opts.degrade_unions && is_union;
  std::vector<size_t> alive;
  alive.reserve(results.size());
  const Status* first_dropped_status = nullptr;
  for (size_t i = 0; i < results.size(); ++i) {
    const Result<RowSet>& r = *results[i];
    if (r.ok()) {
      alive.push_back(i);
      continue;
    }
    if (degrade && IsRetryable(r.status().code())) {
      // Graceful degradation: drop this ∨-branch, annotate the answer.
      if (first_dropped_status == nullptr) first_dropped_status = &r.status();
      st->stats.dropped_branches += 1;
      st->dropped.push_back(children[i]->ToShortString());
      continue;
    }
    return r.status();
  }
  if (alive.empty()) {
    // Every branch failed: there is no partial answer to give. Surface the
    // first branch's failure rather than fabricating an empty result.
    return *first_dropped_status;
  }
  const auto rows = [&](size_t i) { return (*results[i])->size(); };
  const size_t base = *std::max_element(
      alive.begin(), alive.end(), [&](size_t a, size_t b) {
        return is_union ? rows(a) < rows(b) : rows(a) > rows(b);
      });
  RowSet acc = std::move(*results[base]).value();
  for (const size_t i : alive) {
    if (i == base) continue;
    if (is_union) {
      acc.MergeFrom(std::move(*results[i]).value());
    } else {
      acc.IntersectWith(*(*results[i]));
    }
  }
  return acc;
}

/// Shared completion state of one set-op's children (loop-confined).
struct SetOpJoin {
  std::vector<std::optional<Result<RowSet>>> results;
  size_t remaining = 0;
};

void ExecSetOp(const StatePtr& st, const PlanNode& plan, Cb cb) {
  const std::vector<PlanPtr>& children = plan.children();
  if (children.empty()) {
    cb(Status::Internal("set operation with no children"));
    return;
  }
  const size_t fan_out = children.size();
  auto join = std::make_shared<SetOpJoin>();
  join->results.resize(fan_out);
  join->remaining = fan_out;
  auto shared_cb = std::make_shared<Cb>(std::move(cb));
  const PlanNode* node = &plan;
  // Every child starts immediately — this is where the DAG fans out; the
  // combine runs when the last outstanding child reports in. The loop bound
  // must be a local: the last child can complete synchronously, and once its
  // callback hands the answer out a blocking caller is free to destroy the
  // plan — re-reading `children` from the node after that is a use-after-free.
  for (size_t i = 0; i < fan_out; ++i) {
    ExecNode(st, *children[i], [st, node, join, shared_cb, i](Result<RowSet> r) {
      join->results[i] = std::move(r);
      if (--join->remaining > 0) return;
      (*shared_cb)(CombineSetOp(st, *node, join->results));
    });
  }
}

void ExecNode(const StatePtr& st, const PlanNode& plan, Cb cb) {
  switch (plan.kind()) {
    case PlanNode::Kind::kSourceQuery:
      ExecSource(st, plan, std::move(cb));
      return;
    case PlanNode::Kind::kMediatorSp: {
      const PlanNode* node = &plan;
      ExecNode(st, *plan.children().front(),
               [st, node, cb = std::move(cb)](Result<RowSet> r) {
                 if (!r.ok()) {
                   cb(r.status());
                   return;
                 }
                 // A mediator SP over an intermediate result: compiled
                 // once, evaluated row by row.
                 cb(FilterRows(*r, *node->condition(), node->attrs(),
                               st->source->table().schema()));
               });
      return;
    }
    case PlanNode::Kind::kUnion:
    case PlanNode::Kind::kIntersect:
      ExecSetOp(st, plan, std::move(cb));
      return;
    case PlanNode::Kind::kChoice:
      cb(Status::Internal("cannot execute a plan with unresolved Choice nodes"));
      return;
  }
  cb(Status::Internal("unknown plan kind"));
}

}  // namespace

bool DeadlinePassed(Clock* clock,
                    std::chrono::steady_clock::time_point deadline) {
  if (deadline == std::chrono::steady_clock::time_point{}) return false;
  return (clock != nullptr ? clock : Clock::Real())->Now() >= deadline;
}

bool RecoveryFits(Clock* clock, std::chrono::steady_clock::time_point deadline,
                  StatusCode code) {
  if (deadline == std::chrono::steady_clock::time_point{}) return true;
  return code != StatusCode::kDeadlineExceeded &&
         !DeadlinePassed(clock, deadline);
}

Executor::Executor(Source* source, ThreadPool* pool, ExecOptions options,
                   EventLoop* loop)
    : source_(source), pool_(pool), options_(options), loop_(loop) {
  if (options_.clock == nullptr) {
    options_.clock = loop_ != nullptr ? loop_->clock() : Clock::Real();
  }
}

void Executor::Absorb(ExecStats stats, std::vector<std::string> dropped,
                      std::vector<SubQueryKey> failed_keys,
                      std::vector<TruncationRecord> truncated,
                      std::vector<FetchRecord> fetched) {
  stats_ += stats;
  dropped_ = std::move(dropped);
  failed_keys_ = std::move(failed_keys);
  truncated_ = std::move(truncated);
  fetch_records_ = std::move(fetched);
}

namespace {

/// Counts, per SubQueryKey, the leaves the ExecNode walk will reach: a
/// subtree shared by two parents is walked, and counted, once per parent.
void CountConsumers(const PlanNode& plan, ExecState* st) {
  if (plan.kind() == PlanNode::Kind::kSourceQuery) {
    ++st->consumers[SubQueryKey(*plan.condition(), plan.attrs())];
  } else if (plan.kind() != PlanNode::Kind::kChoice) {  // Choice: refused
    for (const PlanPtr& child : plan.children()) CountConsumers(*child, st);
  }
}

/// Fresh per-execution state: dedup scope, retry budget and completeness
/// lists are per execution — descriptions and statistics are stable for a
/// query's duration, not for the executor's whole lifetime.
StatePtr NewState(Source* source, EventLoop* loop, ThreadPool* pool,
                  const ExecOptions& options, PlanPtr root) {
  auto st = std::make_shared<ExecState>();
  st->source = source;
  st->loop = loop;
  st->pool = pool;
  st->opts = options;
  st->budget = options.retry.retry_budget;
  st->root = std::move(root);
  CountConsumers(*st->root, st.get());
  return st;
}

}  // namespace

Result<RowSet> Executor::Execute(const PlanNode& plan) {
  // Non-owning pin: the caller guarantees `plan` outlives this blocking call.
  PlanPtr root(&plan, [](const PlanNode*) {});
  if (loop_ != nullptr) {
    assert(!loop_->InLoopThread() && !loop_->manual() &&
           "blocking Execute needs a threaded loop it does not run on");
    std::promise<Result<RowSet>> promise;
    std::future<Result<RowSet>> future = promise.get_future();
    ExecuteAsync(std::move(root), [&promise](Result<RowSet> result) {
      promise.set_value(std::move(result));
    });
    return future.get();
  }
  // A private loop on this thread: it is "the loop thread" for the whole
  // walk, so the root starts inline and the loop only serves what waits.
  EventLoopOptions loop_options;
  loop_options.clock = options_.clock;
  loop_options.manual = true;
  EventLoop loop(loop_options);
  const StatePtr st = NewState(source_, &loop, pool_, options_, root);
  std::optional<Result<RowSet>> answer;
  ExecNode(st, plan,
           [&answer](Result<RowSet> result) { answer = std::move(result); });
  // The answer can land while the loser of a hedge race is still being
  // scanned on the pool; its continuation posts back here, so the loop must
  // outlive it.
  loop.RunUntil([&] { return answer.has_value() && loop.round_trips() == 0; });
  Absorb(st->stats, std::move(st->dropped), std::move(st->failed_keys),
         std::move(st->truncated), std::move(st->fetch_records));
  return std::move(*answer);
}

void Executor::ExecuteAsync(PlanPtr plan,
                            std::function<void(Result<RowSet>)> done) {
  assert(loop_ != nullptr && "ExecuteAsync runs on a shared loop");
  const StatePtr st =
      NewState(source_, loop_, pool_, options_, std::move(plan));
  loop_->Post([this, st, done = std::move(done)] {
    ExecNode(st, *st->root, [this, st, done](Result<RowSet> result) {
      // Folded on the loop thread before the answer is handed out; the
      // caller's synchronization with `done` publishes it.
      Absorb(st->stats, std::move(st->dropped), std::move(st->failed_keys),
             std::move(st->truncated), std::move(st->fetch_records));
      done(std::move(result));
    });
  });
}

}  // namespace gencompact
