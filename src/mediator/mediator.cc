#include "mediator/mediator.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "expr/simplify.h"
#include "planner/gen_compact.h"
#include "plan/bounded.h"
#include "plan/plan_printer.h"

namespace gencompact {

namespace {

/// Runs `fn` when the enclosing scope exits, on every return path.
template <typename Fn>
class ScopeExit {
 public:
  explicit ScopeExit(Fn fn) : fn_(std::move(fn)) {}
  ~ScopeExit() { fn_(); }
  ScopeExit(const ScopeExit&) = delete;
  ScopeExit& operator=(const ScopeExit&) = delete;

 private:
  Fn fn_;
};

}  // namespace

Status Mediator::RegisterSource(SourceDescription description,
                                std::unique_ptr<Table> table) {
  plan_cache_.Clear();  // a new source invalidates nothing, but keep simple
  const std::string name = description.source_name();
  GC_RETURN_IF_ERROR(
      catalog_.Register(std::move(description), std::move(table)));
  if (options_.enable_circuit_breaker) {
    GC_ASSIGN_OR_RETURN(CatalogEntry * entry, catalog_.Find(name));
    entry->EnableCircuitBreaker(options_.breaker, options_.clock);
  }
  return Status::OK();
}

Status Mediator::ReloadSource(SourceDescription description) {
  // Cached plans were validated against the old capabilities; none may
  // survive the reload. (The catalog rebuilds the source's Checkers, so no
  // memoized Check result survives either.)
  plan_cache_.Clear();
  GC_ASSIGN_OR_RETURN(CatalogEntry * entry,
                      catalog_.Reload(std::move(description)));
  (void)entry;
  return Status::OK();
}

Result<Mediator::Prepared> Mediator::PrepareParts(
    CatalogEntry* entry, ConditionPtr condition,
    const std::vector<std::string>& attrs) {
  Prepared prepared;
  prepared.entry = entry;
  prepared.condition = std::move(condition);
  if (attrs.empty()) {
    prepared.attrs = entry->schema().AllAttributes();
  } else {
    GC_ASSIGN_OR_RETURN(prepared.attrs, entry->schema().MakeSet(attrs));
  }
  ConditionPtr simplified = SimplifyCondition(prepared.condition);
  if (simplified == nullptr) {
    prepared.unsatisfiable = true;
  } else {
    prepared.condition = std::move(simplified);
  }
  return prepared;
}

Result<Mediator::Prepared> Mediator::Prepare(const std::string& sql) {
  GC_ASSIGN_OR_RETURN(const ParsedQuery parsed, ParseSql(sql));
  GC_ASSIGN_OR_RETURN(CatalogEntry * entry, catalog_.Find(parsed.source));
  return PrepareParts(entry, parsed.condition, parsed.select_list);
}

Result<PlanPtr> Mediator::PlanPrepared(const Prepared& prepared,
                                       Strategy strategy) {
  // Breaker-aware planning: refresh the source's k1 penalty multiplier so
  // the costs the planner is about to compare reflect health right now. A
  // penalized source (multiplier > 1) bypasses the plan cache in BOTH
  // directions — a cached healthy plan must not short-circuit the penalty,
  // and a penalty-shaped plan must never be served once the source heals.
  const bool cacheable = prepared.entry->RefreshCostPenalty() <= 1.0;
  const PlanCacheKey cache_key =
      PlanCache::MakeKey(prepared.entry->source_id(), strategy,
                         *prepared.condition, prepared.attrs);
  if (cacheable) {
    if (const std::optional<PlanPtr> cached = plan_cache_.Lookup(cache_key)) {
      return *cached;
    }
  }
  // No per-source planning lock: the Checker memoizes behind its own
  // shared-lock cache (keyed by condition shape) and serializes only
  // its Earley recognizer on memo misses, so concurrent cache-miss planning
  // against one source proceeds in parallel. Two clients racing on the very
  // same key plan twice in the worst case; Insert treats the second result
  // as a refresh of an identical plan.
  const std::unique_ptr<PlannerStrategy> planner =
      MakePlanner(strategy, prepared.entry->handle());
  GC_ASSIGN_OR_RETURN(PlanPtr plan,
                      planner->Plan(prepared.condition, prepared.attrs));
  // Exact-via-refinement against a result-bounded, non-paging interface:
  // split an over-bound source query into a union of selective DNF pieces
  // that each fit under the bound. Deterministic, so the refined plan is
  // what gets validated and cached.
  const ResultBound& result_bound =
      prepared.entry->handle()->description().result_bound();
  if (result_bound.bounded()) {
    BoundedRefinement refined = RefineBoundedPlan(
        plan, result_bound, prepared.entry->handle()->cost_model(),
        prepared.entry->handle()->checker());
    if (refined.splits > 0) {
      plan = std::move(refined.plan);
      refinement_splits_.fetch_add(refined.splits, std::memory_order_relaxed);
    }
  }
  // Feasibility guarantee: validate capability-aware strategies' plans
  // before execution. (The naive baseline intentionally emits plans the
  // source may reject; its failures surface at execution time.)
  if (strategy != Strategy::kNaive) {
    GC_RETURN_IF_ERROR(ValidatePlanFor(*plan, prepared.attrs,
                                       prepared.entry->handle()->checker()));
  }
  // The pinned condition keeps this entry's key re-internable: as long as
  // the plan is cached, the same query text hash-conses back to the same
  // ConditionId and hits.
  if (cacheable) plan_cache_.Insert(cache_key, plan, prepared.condition);
  return plan;
}

Mediator::TimePoint Mediator::QueryDeadline() const {
  if (options_.query_deadline.count() == 0) return TimePoint{};
  return options_.clock->Now() + options_.query_deadline;
}

ExecOptions Mediator::MakeExecOptions(CatalogEntry* entry,
                                      TimePoint deadline) const {
  ExecOptions exec_options;
  exec_options.retry = options_.retry;
  exec_options.clock = options_.clock;
  exec_options.degrade_unions = options_.partial_results;
  exec_options.partial_pages = options_.partial_results;
  exec_options.hedge = options_.hedge;
  if (entry != nullptr) {
    exec_options.breaker = entry->breaker();
    exec_options.latency = entry->latency_tracker();
    exec_options.limiter = limiter_.get();
    exec_options.source_id = entry->source_id();
  }
  if (options_.query_deadline.count() > 0) {
    // The whole-query wall budget: fail-fast before attempts and never arm
    // a retry timer past it — across join relations and recovery runs too.
    exec_options.deadline = deadline;
    if (exec_options.retry.sub_query_deadline.count() == 0 ||
        options_.query_deadline < exec_options.retry.sub_query_deadline) {
      exec_options.retry.sub_query_deadline = options_.query_deadline;
    }
  }
  return exec_options;
}

void Mediator::FoldExecStats(const ExecStats& stats) {
  retries_.fetch_add(stats.retries, std::memory_order_relaxed);
  breaker_rejections_.fetch_add(stats.breaker_rejections,
                                std::memory_order_relaxed);
  deadlines_exceeded_.fetch_add(stats.deadlines_exceeded,
                                std::memory_order_relaxed);
  dropped_branches_.fetch_add(stats.dropped_branches,
                              std::memory_order_relaxed);
  hedges_launched_.fetch_add(stats.hedges_launched, std::memory_order_relaxed);
  hedges_won_.fetch_add(stats.hedges_won, std::memory_order_relaxed);
  pages_fetched_.fetch_add(stats.pages_fetched, std::memory_order_relaxed);
}

Result<RowSet> Mediator::RunPlan(const Prepared& prepared,
                                 const PlanNode& plan, TimePoint deadline,
                                 QueryResult* result,
                                 SubQueryAvoidSet* failed_keys,
                                 SubQueryAvoidSet* truncated_keys) {
  // A private loop pumped on this thread, unless the loop-confined limiter
  // must see the round trips: then submit to the mediator loop and wait.
  Executor executor(prepared.entry->source(), pool_.get(),
                    MakeExecOptions(prepared.entry, deadline),
                    limiter_ != nullptr ? Loop() : nullptr);
  Result<RowSet> rows = executor.Execute(plan);
  RecordExecution(executor, rows, result, failed_keys, truncated_keys);
  return rows;
}

void Mediator::RecordExecution(const Executor& executor,
                               const Result<RowSet>& rows, QueryResult* result,
                               SubQueryAvoidSet* failed_keys,
                               SubQueryAvoidSet* truncated_keys) {
  result->exec = executor.stats();
  result->fetches = executor.fetch_records();
  FoldExecStats(result->exec);
  if (!rows.ok()) {
    if (failed_keys == nullptr) return;
    // The avoid-set for a potential re-plan around what just failed.
    for (const SubQueryKey& key : executor.failed_sub_query_keys()) {
      failed_keys->insert(key);
    }
    return;
  }
  std::vector<std::string> dropped = executor.dropped_sub_queries();
  if (!dropped.empty()) {
    result->completeness.complete = false;
    result->completeness.dropped_sub_queries = std::move(dropped);
  }
  // Bounded sources that withheld rows: every truncation the executor saw
  // becomes an explicit marker — no answer is silently short.
  Completeness& completeness = result->completeness;
  completeness.truncated_sources = executor.truncation_records();
  for (const TruncationRecord& record : completeness.truncated_sources) {
    completeness.complete = false;
    if (truncated_keys != nullptr) truncated_keys->insert(record.key);
  }
}

Status Mediator::AdmitPrepared(const Prepared& prepared) {
  // Admission control, before any planning work: first the hard cap on
  // queries concurrently inside the mediator (checked and counted in one
  // step), then the backlog gate — shed when the fetches already queued at
  // the limiter, drained at the observed per-trip latency, cannot finish
  // inside this query's deadline.
  Status admit = admission_->EnterQuery();
  const bool entered = admit.ok();
  if (entered && admission_->options().enabled) {
    admit = admission_->Admit(limiter_->pending(),
                              prepared.entry->latency_tracker()->Quantile(
                                  AdmissionController::kTripQuantile),
                              options_.query_deadline);
  }
  // Load shedding: the only source that can answer this query is
  // open-circuit, so every sub-query would be breaker-rejected anyway.
  // Fail fast before planning or executing anything. EffectiveState (not
  // state()) so a breaker whose open window has expired is NOT shed — the
  // next real query is the half-open probe that lets the source heal.
  if (admit.ok() && prepared.entry->breaker() != nullptr &&
      prepared.entry->breaker()->EffectiveState() ==
          CircuitBreaker::State::kOpen) {
    admit = Status::Unavailable("query shed: source '" +
                                prepared.entry->name() +
                                "' circuit breaker is open");
  }
  if (!admit.ok()) {
    if (entered) admission_->LeaveQuery();  // a shed query holds no slot
    queries_shed_.fetch_add(1, std::memory_order_relaxed);
  }
  return admit;
}

Result<Mediator::QueryResult> Mediator::ExecutePrepared(
    const Prepared& prepared, Strategy strategy) {
  QueryResult result;
  if (prepared.unsatisfiable) {
    // Proven empty during simplification: no plan, no source contact.
    result.rows = RowSet(RowLayout(
        prepared.attrs, prepared.entry->schema().num_attributes()));
    return result;
  }
  GC_RETURN_IF_ERROR(AdmitPrepared(prepared));
  const ScopeExit leave([this] { admission_->LeaveQuery(); });
  GC_ASSIGN_OR_RETURN(PlanPtr plan, PlanPrepared(prepared, strategy));

  // One deadline for the query: recovery runs share what the first run
  // left, and none starts once it has passed.
  const TimePoint deadline = QueryDeadline();
  SubQueryAvoidSet failed_keys;
  SubQueryAvoidSet truncated_keys;
  Result<RowSet> rows = RunPlan(prepared, *plan, deadline, &result,
                                &failed_keys, &truncated_keys);

  if (rows.ok() && options_.replan_on_truncation && !truncated_keys.empty() &&
      !DeadlinePassed(options_.clock, deadline)) {
    // The answer arrived, but a bounded source withheld rows. If the plan
    // space can route around the truncated sub-queries (an unbounded
    // alternate covers the same slice), the complete answer beats the
    // marked-partial one. The recovery plan is NOT cached, and it is only
    // adopted when it really is complete — otherwise the original partial
    // answer (with its markers) stands.
    const std::unique_ptr<PlannerStrategy> planner =
        MakePlanner(strategy, prepared.entry->handle());
    const Result<PlanPtr> alternative = planner->PlanAvoiding(
        prepared.condition, prepared.attrs, truncated_keys);
    if (alternative.ok()) {
      QueryResult retry_result;
      SubQueryAvoidSet retry_truncated;
      Result<RowSet> retry_rows =
          RunPlan(prepared, **alternative, deadline, &retry_result, nullptr,
                  &retry_truncated);
      if (retry_rows.ok() && retry_result.completeness.complete) {
        rows = std::move(retry_rows);
        result = std::move(retry_result);
        plan = *alternative;
        result.replanned = true;
        queries_replanned_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  if (!rows.ok() && options_.retry.enabled() &&
      IsRetryable(rows.status().code()) && !failed_keys.empty() &&
      RecoveryFits(options_.clock, deadline, rows.status().code())) {
    // Recovery: ask the planner for the cheapest feasible plan that routes
    // around every sub-query that just exhausted its retries. Without
    // retries a fault is final and the first one is reported as-is, and so
    // is a failure on the query deadline. The recovery plan is
    // intentionally NOT cached — it is the workaround, not the plan this
    // query should run once the source heals.
    const std::unique_ptr<PlannerStrategy> planner =
        MakePlanner(strategy, prepared.entry->handle());
    const Result<PlanPtr> alternative = planner->PlanAvoiding(
        prepared.condition, prepared.attrs, failed_keys);
    if (alternative.ok()) {
      rows = RunPlan(prepared, **alternative, deadline, &result, nullptr);
      if (rows.ok()) {
        plan = *alternative;
        result.replanned = true;
        queries_replanned_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  return FinishQuery(prepared, std::move(plan), std::move(rows),
                     std::move(result));
}

Result<Mediator::QueryResult> Mediator::FinishQuery(const Prepared& prepared,
                                                    PlanPtr plan,
                                                    Result<RowSet> rows,
                                                    QueryResult result) {
  if (!rows.ok()) {
    queries_failed_.fetch_add(1, std::memory_order_relaxed);
    return rows.status();
  }
  queries_ok_.fetch_add(1, std::memory_order_relaxed);
  if (!result.completeness.complete) {
    queries_partial_.fetch_add(1, std::memory_order_relaxed);
  }
  if (!result.completeness.truncated_sources.empty()) {
    truncated_answers_.fetch_add(1, std::memory_order_relaxed);
  }

  result.rows = std::move(rows).value();
  result.estimated_cost = prepared.entry->handle()->cost_model().PlanCost(*plan);
  result.plan = std::move(plan);
  const SourceDescription& description = prepared.entry->handle()->description();
  result.true_cost = result.exec.TrueCost(description.k1(), description.k2());
  return result;
}

Result<Mediator::QueryResult> Mediator::Query(const std::string& sql,
                                              Strategy strategy) {
  if (IsJoinQuery(sql)) {
    // A private loop pumped on this thread; joins never touch the limiter,
    // so they never need the mediator loop.
    GC_ASSIGN_OR_RETURN(FederatedJoin join, PrepareJoin(sql));
    FederationProcessor processor(std::move(join.entries),
                                  std::move(join.options));
    Result<RowSet> rows = processor.Execute(join.query);
    return FinishJoin(processor.stats(), std::move(rows));
  }
  GC_ASSIGN_OR_RETURN(const Prepared prepared, Prepare(sql));
  return ExecutePrepared(prepared, strategy);
}

void Mediator::QueryAsync(const std::string& sql,
                          std::function<void(Result<QueryResult>)> done) {
  if (IsJoinQuery(sql)) {
    Result<FederatedJoin> join = PrepareJoin(sql);
    if (!join.ok()) {
      done(join.status());
      return;
    }
    auto processor = std::make_shared<FederationProcessor>(
        std::move(join->entries), std::move(join->options), Loop());
    FederationProcessor* raw = processor.get();
    // The callback owns the processor; it fires on the loop thread.
    raw->ExecuteAsync(std::move(join->query),
                      [this, processor = std::move(processor),
                       done = std::move(done)](Result<RowSet> rows) {
                        done(FinishJoin(processor->stats(), std::move(rows)));
                      });
    return;
  }
  Result<Prepared> prepared_or = Prepare(sql);
  if (!prepared_or.ok()) {
    done(prepared_or.status());
    return;
  }
  const Prepared prepared = std::move(prepared_or).value();
  if (prepared.unsatisfiable) {
    QueryResult result;
    result.rows = RowSet(RowLayout(
        prepared.attrs, prepared.entry->schema().num_attributes()));
    done(std::move(result));
    return;
  }
  if (Status admit = AdmitPrepared(prepared); !admit.ok()) {
    done(std::move(admit));
    return;
  }
  Result<PlanPtr> plan_or = PlanPrepared(prepared, Strategy::kGenCompact);
  if (!plan_or.ok()) {
    admission_->LeaveQuery();
    done(plan_or.status());
    return;
  }
  PlanPtr plan = std::move(plan_or).value();

  auto executor = std::make_shared<Executor>(
      prepared.entry->source(), pool_.get(),
      MakeExecOptions(prepared.entry, QueryDeadline()), Loop());
  Executor* raw = executor.get();
  // The callback owns the executor; it fires on the loop thread. No
  // recovery re-plan on this path — a failed answer is reported as-is.
  raw->ExecuteAsync(
      plan, [this, executor = std::move(executor), plan, prepared,
             done = std::move(done)](Result<RowSet> rows) mutable {
        admission_->LeaveQuery();
        QueryResult result;
        RecordExecution(*executor, rows, &result, nullptr, nullptr);
        done(FinishQuery(prepared, std::move(plan), std::move(rows),
                         std::move(result)));
      });
}

EventLoop* Mediator::Loop() {
  if (EventLoop* loop = started_loop_.load(std::memory_order_acquire)) {
    return loop;
  }
  const std::lock_guard<std::mutex> lock(loop_mu_);
  if (loop_ == nullptr) {
    loop_ = std::make_unique<EventLoop>(options_.clock);
    started_loop_.store(loop_.get(), std::memory_order_release);
  }
  return loop_.get();
}

Result<Mediator::FederatedJoin> Mediator::PrepareJoin(const std::string& sql) {
  GC_ASSIGN_OR_RETURN(const ParsedFederatedQuery parsed,
                      ParseFederatedSql(sql));
  FederatedJoin join;
  join.query.sources = parsed.sources;
  for (const auto& [l, r] : parsed.keys) join.query.keys.push_back({l, r});
  join.query.condition = parsed.condition;
  join.query.select = parsed.select_list;

  join.entries.reserve(parsed.sources.size());
  for (const std::string& name : parsed.sources) {
    GC_ASSIGN_OR_RETURN(CatalogEntry * entry, catalog_.Find(name));
    // Leaf costs the enumerator compares must reflect health right now.
    entry->RefreshCostPenalty();
    // Cross-source failover: any registered replica exporting the same
    // schema can stand in for this relation.
    if (options_.join_failover) {
      join.options.alternates.push_back(
          catalog_.SchemaCompatibleAlternates(*entry));
    }
    join.entries.push_back(entry);
  }
  // Breaker and latency tracker are set per relation by the processor; the
  // retry policy also arms its avoid-set replan.
  join.options.exec = MakeExecOptions(/*entry=*/nullptr, QueryDeadline());
  join.options.pool = pool_.get();
  return join;
}

Result<Mediator::QueryResult> Mediator::FinishJoin(
    const FederationExecStats& stats, Result<RowSet> rows) {
  // Counters fold whether or not the query answered: a failing join still
  // burned retries, breaker rejections and failover attempts.
  FoldExecStats(stats.exec);
  join_failovers_.fetch_add(stats.failovers, std::memory_order_relaxed);
  if (!rows.ok()) {
    queries_failed_.fetch_add(1, std::memory_order_relaxed);
    return rows.status();
  }
  queries_ok_.fetch_add(1, std::memory_order_relaxed);

  federated_queries_.fetch_add(1, std::memory_order_relaxed);
  fed_plans_enumerated_.fetch_add(stats.plans_enumerated,
                                  std::memory_order_relaxed);
  fed_dp_subsets_.fetch_add(stats.dp_subsets, std::memory_order_relaxed);
  fed_bind_edges_.fetch_add(stats.bind_edges, std::memory_order_relaxed);
  fed_independent_edges_.fetch_add(stats.independent_edges,
                                   std::memory_order_relaxed);
  if (stats.used_greedy) {
    fed_greedy_fallbacks_.fetch_add(1, std::memory_order_relaxed);
  }
  fed_replans_.fetch_add(stats.replans, std::memory_order_relaxed);
  if (stats.replans > 0) {
    queries_replanned_.fetch_add(1, std::memory_order_relaxed);
  }

  QueryResult result;
  result.rows = std::move(rows).value();
  result.estimated_cost = stats.plan.estimated_cost;
  for (const PlanPtr& leaf : stats.plan.leaf_plans) {
    if (leaf != nullptr) {
      result.plan = leaf;
      break;
    }
  }
  result.exec = stats.exec;
  result.true_cost = stats.true_cost;
  result.replanned = stats.replans > 0;
  result.completeness.dropped_sub_queries = stats.dropped_sub_queries;
  result.completeness.truncated_sources = stats.truncations;
  result.completeness.complete =
      result.completeness.dropped_sub_queries.empty() &&
      result.completeness.truncated_sources.empty();
  if (!result.completeness.complete) {
    queries_partial_.fetch_add(1, std::memory_order_relaxed);
  }
  if (!result.completeness.truncated_sources.empty()) {
    truncated_answers_.fetch_add(1, std::memory_order_relaxed);
  }
  return result;
}

Result<Mediator::QueryResult> Mediator::QueryCondition(
    const std::string& source, const ConditionPtr& condition,
    const std::vector<std::string>& attrs, Strategy strategy) {
  GC_ASSIGN_OR_RETURN(CatalogEntry * entry, catalog_.Find(source));
  GC_ASSIGN_OR_RETURN(const Prepared prepared,
                      PrepareParts(entry, condition, attrs));
  return ExecutePrepared(prepared, strategy);
}

Result<PlanPtr> Mediator::Explain(const std::string& sql, Strategy strategy) {
  GC_ASSIGN_OR_RETURN(const Prepared prepared, Prepare(sql));
  if (prepared.unsatisfiable) {
    return Status::InvalidArgument(
        "condition is unsatisfiable; the mediator answers it with the empty "
        "set without a plan");
  }
  return PlanPrepared(prepared, strategy);
}

Result<std::string> Mediator::ExplainAnalyze(const std::string& sql,
                                             Strategy strategy) {
  GC_ASSIGN_OR_RETURN(const Prepared prepared, Prepare(sql));
  if (prepared.unsatisfiable) {
    return std::string(
        "EmptyResult (condition simplifies to FALSE; 0 rows, no source "
        "contact)\n");
  }
  GC_ASSIGN_OR_RETURN(const QueryResult result,
                      ExecutePrepared(prepared, strategy));

  const CostModel& model = prepared.entry->handle()->cost_model();
  std::string out = PrintPlan(*result.plan, prepared.entry->schema(), &model);
  out += "\nsource queries (estimated vs actual result rows):\n";
  std::vector<const PlanNode*> queries;
  result.plan->CollectSourceQueries(&queries);
  for (const PlanNode* query : queries) {
    const double estimated =
        model.EstimateResultRows(*query->condition(), query->attrs());
    // A sub-query without a record never answered: its branch was dropped.
    const SubQueryKey key(*query->condition(), query->attrs());
    const auto fetch = std::find_if(
        result.fetches.begin(), result.fetches.end(),
        [&key](const FetchRecord& record) { return record.key == key; });
    const std::string actual = fetch != result.fetches.end()
                                   ? std::to_string(fetch->rows)
                                   : std::string("-");
    char line[512];
    std::snprintf(line, sizeof(line), "  est=%-10.1f actual=%-8s  SP(%s)\n",
                  estimated, actual.c_str(),
                  query->condition()->ToString().c_str());
    out += line;
  }
  char summary[256];
  std::snprintf(summary, sizeof(summary),
                "result: %zu rows; estimated cost %.1f, true cost %.1f\n",
                result.rows.size(), result.estimated_cost, result.true_cost);
  out += summary;
  return out;
}

Mediator::Stats Mediator::StatsSnapshot() const {
  Stats stats;
  stats.interner = ConditionInterner::Global().stats();

  stats.plan_cache.hits = plan_cache_.hits();
  stats.plan_cache.misses = plan_cache_.misses();
  stats.plan_cache.refreshes = plan_cache_.refreshes();
  stats.plan_cache.hit_rate = plan_cache_.hit_rate();
  stats.plan_cache.size = plan_cache_.size();
  stats.plan_cache.shards = plan_cache_.num_shards();
  stats.plan_cache.contended = plan_cache_.contended();
  stats.plan_cache.per_shard = plan_cache_.PerShardStats();

  catalog_.ForEach([this, &stats](CatalogEntry* entry) {
    Stats::PerSource per;
    per.name = entry->name();
    per.source = entry->source()->stats();
    const Checker* checker = entry->handle()->checker();
    per.check_calls = checker->num_checks();
    per.check_memo_hits = checker->num_cache_hits();
    per.check_shapes = checker->memo_size();
    per.earley_items = checker->total_earley_items();
    const PlanTemplateCache* templates = entry->handle()->plan_templates();
    per.plan_templates = templates->size();
    per.template_builds = templates->builds();
    per.template_hits = templates->hits();
    per.description_epoch = entry->description_epoch();
    if (const FaultInjector* injector = entry->source()->fault_injector()) {
      per.faults = injector->stats();
    }
    if (const CircuitBreaker* breaker = entry->breaker()) {
      per.has_breaker = true;
      per.breaker_state = breaker->state();
      per.breaker = breaker->stats();
    }
    const LatencyTracker& latency = *entry->latency_tracker();
    per.latency = latency.snapshot();
    if (options_.hedge.enabled) {
      per.hedge_quantile = EffectiveHedgeQuantile(options_.hedge, latency);
    }
    per.cost_penalty = entry->HealthMultiplier();
    stats.sources.push_back(std::move(per));
  });

  stats.fault_tolerance.queries_ok =
      queries_ok_.load(std::memory_order_relaxed);
  stats.fault_tolerance.queries_failed =
      queries_failed_.load(std::memory_order_relaxed);
  stats.fault_tolerance.queries_partial =
      queries_partial_.load(std::memory_order_relaxed);
  stats.fault_tolerance.queries_replanned =
      queries_replanned_.load(std::memory_order_relaxed);
  stats.fault_tolerance.retries = retries_.load(std::memory_order_relaxed);
  stats.fault_tolerance.breaker_rejections =
      breaker_rejections_.load(std::memory_order_relaxed);
  stats.fault_tolerance.deadlines_exceeded =
      deadlines_exceeded_.load(std::memory_order_relaxed);
  stats.fault_tolerance.dropped_branches =
      dropped_branches_.load(std::memory_order_relaxed);
  stats.fault_tolerance.queries_shed =
      queries_shed_.load(std::memory_order_relaxed);
  stats.fault_tolerance.hedges_launched =
      hedges_launched_.load(std::memory_order_relaxed);
  stats.fault_tolerance.hedges_won =
      hedges_won_.load(std::memory_order_relaxed);
  stats.fault_tolerance.join_failovers =
      join_failovers_.load(std::memory_order_relaxed);
  if (limiter_ != nullptr) {
    stats.scheduler.enabled = true;
    stats.scheduler.inflight_fetches = limiter_->inflight();
    stats.scheduler.peak_inflight = limiter_->peak_inflight();
    stats.scheduler.limiter_queue_depth = limiter_->queue_depth();
    stats.scheduler.peak_queue_depth = limiter_->peak_queue_depth();
    stats.scheduler.limiter_admitted = limiter_->admitted();
    stats.scheduler.limiter_deadline_failures = limiter_->deadline_failures();
  }
  stats.scheduler.gated =
      options_.admission.enabled || options_.max_inflight_queries > 0;
  stats.scheduler.admission_rejections = admission_->rejections();
  stats.scheduler.active_queries = admission_->active_queries();
  if (const EventLoop* loop = started_loop_.load(std::memory_order_acquire)) {
    const EventLoop::Stats loop_stats = loop->stats();
    stats.scheduler.timer_wheel_size = loop_stats.timer_wheel_size;
    stats.scheduler.timers_fired = loop_stats.timers_fired;
    stats.scheduler.tasks_run = loop_stats.tasks_run;
  }
  stats.bounded.pages_fetched =
      pages_fetched_.load(std::memory_order_relaxed);
  stats.bounded.truncated_answers =
      truncated_answers_.load(std::memory_order_relaxed);
  stats.bounded.refinement_splits =
      refinement_splits_.load(std::memory_order_relaxed);
  stats.join.federated_queries =
      federated_queries_.load(std::memory_order_relaxed);
  stats.join.plans_enumerated =
      fed_plans_enumerated_.load(std::memory_order_relaxed);
  stats.join.dp_subsets_expanded =
      fed_dp_subsets_.load(std::memory_order_relaxed);
  stats.join.bind_edges_chosen =
      fed_bind_edges_.load(std::memory_order_relaxed);
  stats.join.independent_edges_chosen =
      fed_independent_edges_.load(std::memory_order_relaxed);
  stats.join.greedy_fallbacks =
      fed_greedy_fallbacks_.load(std::memory_order_relaxed);
  stats.join.replans = fed_replans_.load(std::memory_order_relaxed);
  stats.captured_at = options_.clock->Now();
  return stats;
}

Mediator::Stats::Rates Mediator::Stats::DiffSince(const Stats& earlier) const {
  Rates rates;
  const double seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          captured_at - earlier.captured_at)
          .count();
  if (seconds <= 0.0) return rates;  // zero/backwards interval: all-zero rates
  rates.interval_seconds = seconds;

  const auto delta = [](uint64_t now, uint64_t then) -> double {
    return now >= then ? static_cast<double>(now - then) : 0.0;
  };
  const double ok = delta(fault_tolerance.queries_ok,
                          earlier.fault_tolerance.queries_ok);
  const double failed = delta(fault_tolerance.queries_failed,
                              earlier.fault_tolerance.queries_failed);
  const double shed = delta(fault_tolerance.queries_shed,
                            earlier.fault_tolerance.queries_shed);
  const double completed = ok + failed + shed;
  rates.qps = completed / seconds;
  if (completed > 0.0) {
    rates.success_rate = ok / completed;
    rates.shed_rate = shed / completed;
    rates.hedge_rate = delta(fault_tolerance.hedges_launched,
                             earlier.fault_tolerance.hedges_launched) /
                       completed;
    rates.retry_rate =
        delta(fault_tolerance.retries, earlier.fault_tolerance.retries) /
        completed;
    rates.admission_reject_rate =
        delta(scheduler.admission_rejections,
              earlier.scheduler.admission_rejections) /
        completed;
  }
  const double hits =
      delta(plan_cache.hits, earlier.plan_cache.hits);
  const double lookups =
      hits + delta(plan_cache.misses, earlier.plan_cache.misses);
  if (lookups > 0.0) rates.cache_hit_rate = hits / lookups;
  return rates;
}

std::string Mediator::Stats::Rates::ToString() const {
  char line[256];
  std::string out;
  const auto append = [&out, &line](const char* fmt, auto... args) {
    std::snprintf(line, sizeof(line), fmt, args...);
    out += line;
  };
  append("rates.interval_seconds   %.3f\n", interval_seconds);
  append("rates.qps                %.1f\n", qps);
  append("rates.success_rate       %.4f\n", success_rate);
  append("rates.hedge_rate         %.4f\n", hedge_rate);
  append("rates.shed_rate          %.4f\n", shed_rate);
  append("rates.retry_rate         %.4f\n", retry_rate);
  append("rates.admission_rejects  %.4f\n", admission_reject_rate);
  append("rates.cache_hit_rate     %.4f\n", cache_hit_rate);
  return out;
}

std::string Mediator::Stats::ToString() const {
  char line[256];
  std::string out;
  const auto append = [&out, &line](const char* fmt, auto... args) {
    std::snprintf(line, sizeof(line), fmt, args...);
    out += line;
  };
  append("interner.live_nodes      %zu\n", interner.live_nodes);
  append("interner.hits            %zu\n", interner.hits);
  append("interner.misses          %zu\n", interner.misses);
  append("plan_cache.hits          %zu\n", plan_cache.hits);
  append("plan_cache.misses        %zu\n", plan_cache.misses);
  append("plan_cache.refreshes     %zu\n", plan_cache.refreshes);
  append("plan_cache.hit_rate      %.4f\n", plan_cache.hit_rate);
  append("plan_cache.size          %zu\n", plan_cache.size);
  append("plan_cache.shards        %zu\n", plan_cache.shards);
  append("plan_cache.contended     %zu\n", plan_cache.contended);
  append("queries.ok               %llu\n",
         (unsigned long long)fault_tolerance.queries_ok);
  append("queries.failed           %llu\n",
         (unsigned long long)fault_tolerance.queries_failed);
  append("queries.partial          %llu\n",
         (unsigned long long)fault_tolerance.queries_partial);
  append("queries.replanned        %llu\n",
         (unsigned long long)fault_tolerance.queries_replanned);
  append("retries.total            %llu\n",
         (unsigned long long)fault_tolerance.retries);
  append("breaker.rejections       %llu\n",
         (unsigned long long)fault_tolerance.breaker_rejections);
  append("deadlines.exceeded       %llu\n",
         (unsigned long long)fault_tolerance.deadlines_exceeded);
  append("branches.dropped         %llu\n",
         (unsigned long long)fault_tolerance.dropped_branches);
  append("queries.shed             %llu\n",
         (unsigned long long)fault_tolerance.queries_shed);
  append("hedges.launched          %llu\n",
         (unsigned long long)fault_tolerance.hedges_launched);
  append("hedges.won               %llu\n",
         (unsigned long long)fault_tolerance.hedges_won);
  append("join.failovers           %llu\n",
         (unsigned long long)fault_tolerance.join_failovers);
  if (scheduler.enabled || scheduler.gated) {
    append("scheduler.adm_rejected   %llu\n",
           (unsigned long long)scheduler.admission_rejections);
    append("scheduler.active_queries %zu\n", scheduler.active_queries);
  }
  if (scheduler.enabled) {
    append("scheduler.inflight       %zu (peak %zu)\n",
           scheduler.inflight_fetches, scheduler.peak_inflight);
    append("scheduler.queue_depth    %zu (peak %zu)\n",
           scheduler.limiter_queue_depth, scheduler.peak_queue_depth);
    append("scheduler.admitted       %llu\n",
           (unsigned long long)scheduler.limiter_admitted);
    append("scheduler.queue_timeouts %llu\n",
           (unsigned long long)scheduler.limiter_deadline_failures);
    append("scheduler.timer_wheel    %zu\n", scheduler.timer_wheel_size);
    append("scheduler.timers_fired   %llu\n",
           (unsigned long long)scheduler.timers_fired);
    append("scheduler.tasks_run      %llu\n",
           (unsigned long long)scheduler.tasks_run);
  }
  if (bounded.pages_fetched > 0 || bounded.truncated_answers > 0 ||
      bounded.refinement_splits > 0) {
    append("pages.fetched            %llu\n",
           (unsigned long long)bounded.pages_fetched);
    append("answers.truncated        %llu\n",
           (unsigned long long)bounded.truncated_answers);
    append("refinement.splits        %llu\n",
           (unsigned long long)bounded.refinement_splits);
  }
  if (join.federated_queries > 0) {
    append("join.federated_queries   %llu\n",
           (unsigned long long)join.federated_queries);
    append("join.plans_enumerated    %llu\n",
           (unsigned long long)join.plans_enumerated);
    append("join.dp_subsets          %llu\n",
           (unsigned long long)join.dp_subsets_expanded);
    append("join.bind_edges          %llu\n",
           (unsigned long long)join.bind_edges_chosen);
    append("join.independent_edges   %llu\n",
           (unsigned long long)join.independent_edges_chosen);
    append("join.greedy_fallbacks    %llu\n",
           (unsigned long long)join.greedy_fallbacks);
    append("join.replans             %llu\n",
           (unsigned long long)join.replans);
  }
  for (const PerSource& s : sources) {
    const char* prefix = s.name.c_str();
    append("source[%s].received      %zu\n", prefix, s.source.queries_received);
    append("source[%s].answered      %zu\n", prefix, s.source.queries_answered);
    append("source[%s].rejected      %zu\n", prefix, s.source.queries_rejected);
    append("source[%s].unavailable   %zu\n", prefix,
           s.source.queries_unavailable);
    append("source[%s].rows          %llu\n", prefix,
           (unsigned long long)s.source.rows_returned);
    if (s.source.pages_served > 0) {
      append("source[%s].pages         %llu\n", prefix,
             (unsigned long long)s.source.pages_served);
      append("source[%s].truncated     %llu\n", prefix,
             (unsigned long long)s.source.truncated_responses);
    }
    append("source[%s].check_calls   %zu\n", prefix, s.check_calls);
    append("source[%s].check_hits    %zu\n", prefix, s.check_memo_hits);
    append("source[%s].check_shapes  %zu\n", prefix, s.check_shapes);
    append("source[%s].earley_items  %zu\n", prefix, s.earley_items);
    append("source[%s].plan_templates %zu\n", prefix, s.plan_templates);
    append("source[%s].template_builds %llu\n", prefix,
           (unsigned long long)s.template_builds);
    append("source[%s].template_hits %llu\n", prefix,
           (unsigned long long)s.template_hits);
    if (s.description_epoch > 0) {
      append("source[%s].desc_epoch    %llu\n", prefix,
             (unsigned long long)s.description_epoch);
    }
    append("source[%s].faults        %llu\n", prefix,
           (unsigned long long)(s.faults.injected_unavailable +
                                s.faults.injected_timeouts));
    if (s.has_breaker) {
      const char* state = s.breaker_state == CircuitBreaker::State::kClosed
                              ? "closed"
                              : s.breaker_state == CircuitBreaker::State::kOpen
                                    ? "open"
                                    : "half-open";
      append("source[%s].breaker       %s (opened %llu, rejected %llu)\n",
             prefix, state, (unsigned long long)s.breaker.opened,
             (unsigned long long)s.breaker.rejected);
    }
    if (s.latency.count > 0) {
      append("source[%s].latency       n=%llu mean=%lldus p50=%lldus p99=%lldus\n",
             prefix, (unsigned long long)s.latency.count,
             (long long)s.latency.mean.count(),
             (long long)s.latency.p50.count(),
             (long long)s.latency.p99.count());
    }
    if (s.hedge_quantile > 0.0) {
      append("source[%s].hedge_q       %.3f\n", prefix, s.hedge_quantile);
    }
    if (s.cost_penalty != 1.0) {
      append("source[%s].cost_penalty  %.1fx\n", prefix, s.cost_penalty);
    }
  }
  return out;
}

Result<std::string> Mediator::ExplainText(const std::string& sql,
                                          Strategy strategy) {
  GC_ASSIGN_OR_RETURN(const Prepared prepared, Prepare(sql));
  if (prepared.unsatisfiable) {
    return std::string("EmptyResult (condition simplifies to FALSE)\n");
  }
  GC_ASSIGN_OR_RETURN(const PlanPtr plan, PlanPrepared(prepared, strategy));
  return PrintPlan(*plan, prepared.entry->schema(),
                   &prepared.entry->handle()->cost_model());
}

}  // namespace gencompact
