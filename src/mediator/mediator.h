#ifndef GENCOMPACT_MEDIATOR_MEDIATOR_H_
#define GENCOMPACT_MEDIATOR_MEDIATOR_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "expr/intern.h"
#include "exec/admission.h"
#include "exec/event_loop.h"
#include "exec/executor.h"
#include "exec/inflight_limiter.h"
#include "mediator/catalog.h"
#include "mediator/federation.h"
#include "mediator/sql_parser.h"
#include "plan/plan_validator.h"
#include "planner/plan_cache.h"
#include "planner/planner.h"

namespace gencompact {

/// The end-to-end mediator (Section 3): target queries come in (as SQL text
/// or as condition + projection), a capability-sensitive plan is generated
/// with the configured strategy, validated, executed against the
/// capability-enforcing source, and the postprocessed result returned.
///
/// Query() is safe to call from many client threads at once (see DESIGN.md
/// "Concurrency model"): the plan cache is sharded and internally locked,
/// planning runs concurrently per source (the Checker's memo and the
/// source's GenCompact plan templates are thread-safe and keyed by
/// condition shape; only the Earley recognizer serializes, on memo misses),
/// and execution — the latency-dominated part — runs on the event-loop
/// Executor against immutable tables. Register sources before starting
/// concurrent queries.
///
/// A query whose exact condition was planned before is a plan-cache hit. A
/// query of a known shape with new constants (a web form's traffic) misses
/// the plan cache but reuses the shape's plan template: GenCompact only
/// re-costs it with the new constants (Stats::PerSource::template_hits).
///
/// Two drivers feed the one engine. A blocking Query pumps its own private
/// loop on the calling thread, for a join as for a single-source query.
/// QueryAsync submits to the mediator's loop thread. The exception is a
/// mediator with in-flight caps or the backlog gate configured: the limiter
/// is loop-confined and must see every single-source round trip, so there
/// blocking single-source queries submit to the mediator loop and wait
/// (joins run outside the limiter and keep their own loop).
///
/// There is one data plane and no option to pick another: every source
/// scan filters, hashes and deduplicates on its table's column mirror and
/// builds only the distinct matching rows (ScanTable, exec/scan.h);
/// mediator selections over intermediate results run row by row, and
/// unions and intersections combine in place.
class Mediator {
 public:
  struct Options {
    /// Worker threads that take source scans off the thread driving the
    /// event loop while it has other round trips to serve: always on the
    /// mediator loop, and on a blocking query's own loop while another round
    /// trip on it is out (the children of a set operation, or a join's
    /// concurrent bind batches). 0 = scans run on that thread. (Those round
    /// trips overlap on the loop either way.)
    size_t num_threads = 0;
    /// Independently locked LRU shards of the plan cache. 1 = a single
    /// global LRU; use ≥ the expected client-thread count under load.
    size_t cache_shards = 1;
    /// Total plan-cache capacity, split across shards.
    size_t cache_capacity = 256;

    // ---- Fault tolerance. With the defaults a fault fails its query. ----

    /// Per-sub-query retry/backoff/deadline discipline (max_attempts = 1
    /// disables retries entirely). Retries also arm the avoid-set re-plan:
    /// after an execution still fails retryably, the planner is asked once
    /// for the cheapest feasible plan that avoids the failed sub-queries
    /// (for a join, a tree that avoids the failed relation's independent
    /// fetch), and that plan runs before the query gives up, inside the
    /// query deadline (see query_deadline).
    RetryPolicy retry;
    /// Attach a per-source circuit breaker to every source registered
    /// after this option is set. The breaker also sheds a single-source
    /// query whose source is open-circuit before planning it, and inflates
    /// the source's k1 x8 while open and x3 while half-open, so planning
    /// steers away from it; a plan costed under a penalty bypasses the plan
    /// cache in both directions.
    bool enable_circuit_breaker = false;
    CircuitBreakerOptions breaker;
    /// Degrade failed ∨-branches into partial answers with a completeness
    /// annotation instead of failing the query (∧/∩ failures still fail).
    bool partial_results = false;
    /// Time source for backoff/breaker/deadlines; null = Clock::Real().
    /// Tests inject a FakeClock for instantaneous, deterministic schedules.
    Clock* clock = nullptr;
    /// Hedged requests: when a sub-query outlives the source's tracked
    /// latency quantile, race one backup attempt and adopt the first
    /// success (see HedgePolicy). Every source owns a latency digest from
    /// registration; hedging reads it.
    HedgePolicy hedge;
    /// Cross-source failover for joins: give every relation of a join its
    /// schema-compatible catalog entries as alternates, so a relation whose
    /// fetch fails retryably falls over to a replica. Off by default: it
    /// assumes that same-schema sources hold the same data.
    bool join_failover = false;
    /// After an answer comes back truncated (a bounded source withheld
    /// rows and no exact strategy recovered them), re-plan avoiding the
    /// truncated sub-queries and adopt the alternative iff it answers
    /// completely — planning around a bounded source when an unbounded
    /// alternate exists in the Choice space. Off by default: it spends
    /// round trips on the chance of a complete answer. (A non-paging
    /// bounded source's over-bound source queries are always refined at
    /// planning time into selective pieces that fit under the bound.)
    bool replan_on_truncation = false;

    // ---- Load control. With the defaults nothing is capped or shed. ----

    /// Per-source / global caps on concurrent source round trips of
    /// single-source queries (see InflightLimiter). Zeros = unlimited. Any
    /// cap builds the limiter, and then every single-source query — blocking
    /// or not — executes on the mediator's loop thread, where the
    /// loop-confined limiter sees each round trip. Join relations run
    /// outside the limiter.
    InflightLimiterOptions inflight;
    /// Shed hopeless queries before planning when backlog x observed
    /// latency exceeds the deadline (see AdmissionController). Enabling it
    /// builds the limiter (the backlog it reads), with the same move to the
    /// mediator loop as a cap. The backlog drains inflight.global fetches
    /// at a time (one without a global cap).
    AdmissionOptions admission;
    /// Wall-time budget for one query's execution, fixed when its first
    /// execution starts: bounds limiter waits, sub-query retry chains, and
    /// backoff timers (none is ever armed past it), feeds admission
    /// control, and is shared by every relation of a join (a relation bound
    /// from a slow driving side gets only the budget that is left) and by
    /// every recovery run (none starts once it has passed, nor after a
    /// kDeadlineExceeded failure). Zero = none.
    std::chrono::microseconds query_deadline{0};
    /// Query-count admission gate, checked before planning: at most
    /// `max_inflight_queries` single-source queries are inside the mediator
    /// at once, and the next one is shed with kUnavailable. 0 = no cap.
    size_t max_inflight_queries = 0;
  };

  Mediator() : Mediator(Options()) {}

  explicit Mediator(const Options& options)
      : options_(options),
        plan_cache_(options.cache_capacity, options.cache_shards),
        pool_(options.num_threads > 0
                  ? std::make_unique<ThreadPool>(options.num_threads)
                  : nullptr) {
    if (options_.clock == nullptr) options_.clock = Clock::Real();
    if (options_.inflight.per_source > 0 || options_.inflight.global > 0 ||
        options_.admission.enabled) {
      limiter_ =
          std::make_unique<InflightLimiter>(options_.inflight, options_.clock);
    }
    admission_ = std::make_unique<AdmissionController>(
        options_.admission, options_.max_inflight_queries,
        options_.inflight.global);
  }

  /// Registers a simulated Internet source (takes ownership of the table).
  Status RegisterSource(SourceDescription description,
                        std::unique_ptr<Table> table);

  /// Reloads the SSDL description of an already-registered source (same
  /// name, same schema; the table and registration id survive). Clears the
  /// plan cache, bumps the source's description epoch, and rebuilds its
  /// Checkers, so no plan or Check result computed against the old
  /// capabilities outlives them. Like registration, call while no queries
  /// are in flight.
  Status ReloadSource(SourceDescription description);

  /// Completeness marker of a (possibly degraded) answer: when the
  /// fault-tolerance policy drops failed ∨-branches instead of failing the
  /// query, or a result-bounded source truncated a sub-query with no exact
  /// recovery, the answer is a subset of the true answer and lists exactly
  /// what it is missing. An answer is complete iff both lists are empty —
  /// there are NO silently-truncated answers.
  struct Completeness {
    bool complete = true;
    /// Short renderings of the dropped ∨-branches.
    std::vector<std::string> dropped_sub_queries;
    /// Bounded sources that hit their bound with rows remaining: the
    /// "provably partial" marker of the result-bound model, whose
    /// rows_lower_bound is what DID arrive (the answer holds at least that
    /// many of the sub-query's true rows).
    std::vector<TruncationRecord> truncated_sources;
  };

  struct QueryResult {
    RowSet rows;
    PlanPtr plan;
    double estimated_cost = 0.0;
    ExecStats exec;           ///< true transfer statistics
    double true_cost = 0.0;   ///< Equation-1 cost with actual row counts
    /// Each source query of a single-source answer's execution, with the
    /// rows it shipped (empty for joins).
    std::vector<FetchRecord> fetches;
    Completeness completeness;
    /// True when the answer came from a recovery plan that routed around
    /// failed or truncated sub-queries (Options::retry,
    /// Options::replan_on_truncation).
    bool replanned = false;
  };

  /// Runs a mini-SQL target query planned with GenCompact. Join queries
  /// (`SELECT ... FROM a JOIN b ON ... [JOIN c ON ...]`), two sources or
  /// more, run through the FederationProcessor: capability-sensitive
  /// pushdown per relation, DP join-order enumeration over the query graph,
  /// and bind-join vs independent fetch per edge, executed on a private
  /// loop pumped on the calling thread with each tree level's round trips
  /// in flight together. For a join, QueryResult::plan is the
  /// independent-fetch plan of the first relation in FROM order that has
  /// one, estimated_cost is the enumerator's estimate, and exec/true_cost
  /// sum every relation's fetches.
  Result<QueryResult> Query(const std::string& sql) {
    return Query(sql, Strategy::kGenCompact);
  }
  Result<QueryResult> Query(const std::string& sql, Strategy strategy);

  /// Non-blocking query intake: admission control and planning run on the
  /// calling thread, execution on the mediator's loop thread, and `done`
  /// fires there with the answer — so one submitter thread keeps hundreds
  /// of queries in flight at once. A join is parsed on the calling thread
  /// and both planned and executed on the loop thread (its bind batches are
  /// planned only once their driving side has landed); its `done` always
  /// fires there, with the answer Query would give. Recovery re-planning of
  /// single-source queries is not attempted on this path (fall back to
  /// Query for that); a join's avoid-set replan (armed by retries) is.
  void QueryAsync(const std::string& sql,
                  std::function<void(Result<QueryResult>)> done);

  /// Programmatic form: SP(condition, attrs, source).
  Result<QueryResult> QueryCondition(const std::string& source,
                                     const ConditionPtr& condition,
                                     const std::vector<std::string>& attrs,
                                     Strategy strategy);

  /// Plans without executing; returns the validated plan.
  Result<PlanPtr> Explain(const std::string& sql, Strategy strategy);

  /// Human-readable plan rendering for a query.
  Result<std::string> ExplainText(const std::string& sql, Strategy strategy);

  /// EXPLAIN ANALYZE: runs the query once, exactly as Query does (admission,
  /// retries, hedging, the limiter, the query deadline, paging and any
  /// recovery re-plan), and renders the plan that answered together with a
  /// per-source-query table of estimated vs actual result rows and the
  /// execution's true cost — the standard way to debug the cost model on a
  /// live query. The actual rows are those of that one execution's fetches:
  /// no source query is sent a second time. Joins are not supported.
  Result<std::string> ExplainAnalyze(const std::string& sql, Strategy strategy);

  Catalog* catalog() { return &catalog_; }

  /// Plan-cache statistics (mediators see the same form queries over and
  /// over; repeated queries skip planning entirely).
  const PlanCache& plan_cache() const { return plan_cache_; }

  /// One mediator-wide observability snapshot (/varz-style): every counter
  /// the layers below keep — condition-interner pool, Checker memo, plan
  /// cache, per-source query/fault/breaker counters, and the aggregated
  /// retry/degradation/replan totals — gathered in one consistent-enough
  /// read so load tests and benches can watch pool growth, memo efficacy,
  /// and fault recovery over time.
  struct Stats {
    ConditionInterner::Stats interner;

    struct {
      size_t hits = 0;
      size_t misses = 0;
      size_t refreshes = 0;
      double hit_rate = 0.0;
      size_t size = 0;
      size_t shards = 0;
      /// Lock acquisitions that found a shard mutex already held (summed).
      size_t contended = 0;
      /// Per-shard counters, index order — a single hot shard shows up
      /// here, not in the totals above.
      std::vector<PlanCache::ShardStats> per_shard;
    } plan_cache;

    struct PerSource {
      std::string name;
      Source::Stats source;
      /// Calls to the source's planning Checker (/varz
      /// `source[..].check_calls`): a GenCompact plan that builds its
      /// template asks once per distinct condition, a plan that reuses a
      /// template asks nothing, and validating a new plan asks once per
      /// source query — so a warm form workload asks only to validate.
      size_t check_calls = 0;
      size_t check_memo_hits = 0;  ///< answered from the shape memo
      size_t check_shapes = 0;     ///< distinct shapes the memo holds
      /// GenCompact plan templates held for this source (one per query
      /// shape, projection and atom identity), how many plans built one,
      /// and how many reused one (/varz `source[..].plan_templates`,
      /// `template_builds`, `template_hits`).
      size_t plan_templates = 0;
      uint64_t template_builds = 0;
      uint64_t template_hits = 0;
      /// Earley items created planning against this source — the per-source
      /// work measure behind check_calls (items only accrue on real parses,
      /// never on memo hits).
      size_t earley_items = 0;
      uint64_t description_epoch = 0;  ///< bumped by each description reload
      FaultInjector::Stats faults;          ///< zeros when no policy installed
      bool has_breaker = false;
      CircuitBreaker::State breaker_state = CircuitBreaker::State::kClosed;
      CircuitBreaker::Stats breaker;
      /// The source's latency digest (count 0 until a call has answered).
      LatencyTracker::Snapshot latency;
      /// k1 cost-penalty multiplier the breaker's effective state calls
      /// for now (1 when closed or without a breaker).
      double cost_penalty = 1.0;
      /// The hedge quantile currently in force for this source: the fixed
      /// policy quantile, or the straggler-rate-derived one when adaptive
      /// (0 when hedging is off or no digest exists).
      double hedge_quantile = 0.0;
    };
    std::vector<PerSource> sources;

    /// Load-control gauges. `enabled` and the limiter gauges are set only
    /// when Options::inflight caps or the backlog gate are configured;
    /// `gated` whenever a query-count or backlog gate is; the admission
    /// gauges always (ToString prints them when either flag is set); the
    /// loop counters describe the mediator's loop thread (QueryAsync, and
    /// every single-source query while the limiter exists).
    struct Scheduler {
      bool enabled = false;
      bool gated = false;
      size_t inflight_fetches = 0;       ///< source round trips on the wire now
      size_t peak_inflight = 0;
      size_t limiter_queue_depth = 0;    ///< fetches waiting for a permit now
      size_t peak_queue_depth = 0;
      uint64_t limiter_admitted = 0;     ///< permits granted, lifetime
      uint64_t limiter_deadline_failures = 0;  ///< waits that outlived deadlines
      uint64_t admission_rejections = 0; ///< queries shed before planning
      size_t active_queries = 0;         ///< admitted, not yet answered
      size_t timer_wheel_size = 0;       ///< timers armed right now
      uint64_t timers_fired = 0;
      uint64_t tasks_run = 0;            ///< loop continuations executed
    } scheduler;

    /// Aggregated over every execution this mediator ran.
    struct {
      uint64_t queries_ok = 0;
      uint64_t queries_failed = 0;
      uint64_t queries_partial = 0;    ///< answered, but degraded
      uint64_t queries_replanned = 0;  ///< recovered via avoid-set re-plan
      uint64_t queries_shed = 0;       ///< rejected up front (breaker open)
      uint64_t retries = 0;
      uint64_t breaker_rejections = 0;
      uint64_t deadlines_exceeded = 0;
      uint64_t dropped_branches = 0;
      uint64_t hedges_launched = 0;
      uint64_t hedges_won = 0;
      uint64_t join_failovers = 0;  ///< join fetches re-run on an alternate
    } fault_tolerance;

    /// Result-bounded interface activity (zeros while no source declares a
    /// bound).
    struct {
      uint64_t pages_fetched = 0;      ///< bounded pages the loops drove
      uint64_t truncated_answers = 0;  ///< answers carrying a truncation marker
      uint64_t refinement_splits = 0;  ///< source queries split at plan time
    } bounded;

    /// Join planning and execution, over every JOIN query that answered.
    struct {
      uint64_t federated_queries = 0;
      uint64_t plans_enumerated = 0;  ///< (left, right, method) candidates costed
      uint64_t dp_subsets_expanded = 0;  ///< PlanTable entries materialized
      uint64_t bind_edges_chosen = 0;
      uint64_t independent_edges_chosen = 0;
      uint64_t greedy_fallbacks = 0;  ///< DP size threshold exceeded
      uint64_t replans = 0;  ///< alternate join orders adopted mid-query
    } join;

    /// When this snapshot was taken (the mediator's injected clock), so two
    /// snapshots diff into rates deterministically under a FakeClock.
    std::chrono::steady_clock::time_point captured_at{};

    /// Interval rates between two snapshots of the same mediator.
    struct Rates {
      double interval_seconds = 0.0;
      double qps = 0.0;           ///< completed queries (ok+failed+shed) / s
      double success_rate = 0.0;  ///< ok / completed
      double hedge_rate = 0.0;    ///< hedges launched / completed
      double shed_rate = 0.0;     ///< shed / (completed)
      double retry_rate = 0.0;    ///< retries / completed
      double cache_hit_rate = 0.0;  ///< plan-cache hits / lookups, interval
      /// Admission-control rejections / completed queries over the interval.
      double admission_reject_rate = 0.0;
      std::string ToString() const;
    };
    /// Rates over (earlier, this]; `earlier` must be an older snapshot of
    /// the same mediator. Zero-interval or non-monotonic inputs yield zero
    /// rates rather than dividing by zero.
    Rates DiffSince(const Stats& earlier) const;

    /// Multi-line /varz-style rendering (stable keys, one per line).
    std::string ToString() const;
  };
  Stats StatsSnapshot() const;

 private:
  using TimePoint = std::chrono::steady_clock::time_point;

  /// A query after parsing and the semantics-preserving simplification
  /// pre-pass: a condition that simplifies to FALSE is answered with the
  /// empty set without planning or contacting the source.
  struct Prepared {
    CatalogEntry* entry = nullptr;
    ConditionPtr condition;
    AttributeSet attrs;
    bool unsatisfiable = false;
  };
  Result<Prepared> Prepare(const std::string& sql);
  Result<Prepared> PrepareParts(CatalogEntry* entry, ConditionPtr condition,
                                const std::vector<std::string>& attrs);
  Result<PlanPtr> PlanPrepared(const Prepared& prepared, Strategy strategy);
  Result<QueryResult> ExecutePrepared(const Prepared& prepared,
                                      Strategy strategy);
  /// A join's query, relations, and processor options with this mediator's
  /// executor discipline — what both drivers hand the FederationProcessor.
  struct FederatedJoin {
    FederatedQuery query;
    std::vector<CatalogEntry*> entries;
    FederationOptions options;
  };
  Result<FederatedJoin> PrepareJoin(const std::string& sql);
  /// The shared tail of both join drivers: folds the join's counters into
  /// the mediator-wide aggregates (whether or not it answered) and builds
  /// its QueryResult.
  Result<QueryResult> FinishJoin(const FederationExecStats& stats,
                                 Result<RowSet> rows);

  /// The pre-planning gates every single-source query passes: the query-
  /// count cap and the backlog-x-latency gate, then breaker-open load
  /// shedding. A non-OK status is the shed answer (counted as shed). OK
  /// holds a slot of the query count (capped or not), which the caller
  /// returns with admission_->LeaveQuery() once the query is answered.
  Status AdmitPrepared(const Prepared& prepared);

  /// The query deadline of an execution starting now: now + query_deadline,
  /// or none (the zero time point).
  TimePoint QueryDeadline() const;

  /// The executor discipline every query runs under: retries, the query's
  /// absolute `deadline` (with the sub-query deadline capped to
  /// query_deadline), degradation and hedging. `entry` supplies the breaker
  /// and latency tracker; null leaves them to the caller (federation sets
  /// them per relation). With an entry it also carries the in-flight
  /// limiter, when there is one.
  ExecOptions MakeExecOptions(CatalogEntry* entry, TimePoint deadline) const;
  /// Folds one execution's counters into the mediator-wide aggregates.
  void FoldExecStats(const ExecStats& stats);

  /// One blocking executor pass with this mediator's options and the
  /// query's `deadline` (on the mediator loop while the limiter exists,
  /// else on a private loop), recorded by RecordExecution.
  Result<RowSet> RunPlan(const Prepared& prepared, const PlanNode& plan,
                         TimePoint deadline, QueryResult* result,
                         SubQueryAvoidSet* failed_keys,
                         SubQueryAvoidSet* truncated_keys = nullptr);

  /// Folds a finished execution into the mediator-wide aggregates and
  /// `result->exec`. On success its completeness markers land in `result`
  /// and truncated sub-queries (bounded sources that withheld rows) in
  /// `truncated_keys`, if given — the avoid-set for replan_on_truncation. On
  /// failure the keys of failed sub-queries go to `failed_keys`, if given —
  /// the avoid-set for the retry-armed recovery re-plan.
  void RecordExecution(const Executor& executor, const Result<RowSet>& rows,
                       QueryResult* result, SubQueryAvoidSet* failed_keys,
                       SubQueryAvoidSet* truncated_keys);

  /// The shared tail of both drivers: counts the query as ok/failed/partial
  /// and fills in rows, plan, estimated and true cost.
  Result<QueryResult> FinishQuery(const Prepared& prepared, PlanPtr plan,
                                  Result<RowSet> rows, QueryResult result);

  /// The mediator's loop thread, started on first use. A mediator that only
  /// answers blocking queries without caps never starts it: the process
  /// can then stay single-threaded, and glibc's malloc and libstdc++'s
  /// shared_ptr keep their single-thread fast paths (an eagerly started
  /// thread cost ~8% p50 on perfbench's planning-bound form_new_constants,
  /// 4-core x86-64 container).
  EventLoop* Loop();

  Options options_;
  Catalog catalog_;
  PlanCache plan_cache_;
  // Execution machinery. The limiter exists only with caps or the backlog
  // gate, the loop from its first use (see Loop()); the admission
  // controller always, since it counts the single-source queries inside the
  // mediator even without a gate. Declaration order is destruction order in
  // reverse, and it matters: the pool must drain first (in-flight scan
  // offloads post back to the loop), then the loop (its leftover tasks may
  // release limiter permits), then the limiter/admission gauges they
  // touched.
  std::unique_ptr<InflightLimiter> limiter_;
  std::unique_ptr<AdmissionController> admission_;
  std::mutex loop_mu_;  // guards starting loop_
  std::unique_ptr<EventLoop> loop_;
  std::atomic<EventLoop*> started_loop_{nullptr};  // loop_ once started
  std::unique_ptr<ThreadPool> pool_;

  // Mediator-lifetime fault-tolerance aggregates (executors are
  // per-execution and discarded; these carry their counters forward).
  std::atomic<uint64_t> queries_ok_{0};
  std::atomic<uint64_t> queries_failed_{0};
  std::atomic<uint64_t> queries_partial_{0};
  std::atomic<uint64_t> queries_replanned_{0};
  std::atomic<uint64_t> queries_shed_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> breaker_rejections_{0};
  std::atomic<uint64_t> deadlines_exceeded_{0};
  std::atomic<uint64_t> dropped_branches_{0};
  std::atomic<uint64_t> hedges_launched_{0};
  std::atomic<uint64_t> hedges_won_{0};
  std::atomic<uint64_t> join_failovers_{0};
  std::atomic<uint64_t> pages_fetched_{0};
  std::atomic<uint64_t> truncated_answers_{0};
  std::atomic<uint64_t> refinement_splits_{0};
  std::atomic<uint64_t> federated_queries_{0};
  std::atomic<uint64_t> fed_plans_enumerated_{0};
  std::atomic<uint64_t> fed_dp_subsets_{0};
  std::atomic<uint64_t> fed_bind_edges_{0};
  std::atomic<uint64_t> fed_independent_edges_{0};
  std::atomic<uint64_t> fed_greedy_fallbacks_{0};
  std::atomic<uint64_t> fed_replans_{0};
};

}  // namespace gencompact

#endif  // GENCOMPACT_MEDIATOR_MEDIATOR_H_
