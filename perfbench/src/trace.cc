#include "trace.h"

#include <algorithm>
#include <ctime>
#include <cstdio>
#include <set>
#include <utility>

#include "exec/scan.h"
#include "expr/simplify.h"
#include "mediator/federation.h"
#include "mediator/sql_parser.h"
#include "plan/plan_validator.h"
#include "planner/planner.h"

namespace perfbench {

using gencompact::AttributeSet;
using gencompact::CatalogEntry;
using gencompact::ConditionPtr;
using gencompact::Executor;
using gencompact::FederatedQuery;
using gencompact::FederationExecStats;
using gencompact::FederationOptions;
using gencompact::FederationProcessor;
using gencompact::PlanCache;
using gencompact::PlanNode;
using gencompact::PlanPtr;
using gencompact::Result;
using gencompact::RowSet;
using gencompact::Status;
using gencompact::Strategy;

int64_t WallNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

int Tracer::Begin(const char* name, int parent, bool derived) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.query = query_;
  span.derived = derived;
  span.cpu_ns = ThreadCpuNs();
  span.start_ns = WallNs();
  spans_.push_back(span);
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::End(int index) {
  const int64_t end = WallNs();
  Span& span = spans_[static_cast<size_t>(index)];
  span.end_ns = end;
  span.cpu_ns = ThreadCpuNs() - span.cpu_ns;
}

int Tracer::AddDerived(const char* name, int parent, int64_t duration_ns) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.query = query_;
  span.derived = true;
  span.start_ns = spans_[static_cast<size_t>(parent)].start_ns;
  span.end_ns = span.start_ns + std::max<int64_t>(0, duration_ns);
  spans_.push_back(span);
  return static_cast<int>(spans_.size() - 1);
}

std::map<std::string, Tracer::Totals> Tracer::Aggregate(size_t first) const {
  std::vector<int64_t> covered(spans_.size(), 0);
  for (size_t i = first; i < spans_.size(); ++i) {
    const int parent = spans_[i].parent;
    if (parent >= static_cast<int>(first)) {
      covered[static_cast<size_t>(parent)] += spans_[i].duration_ns();
    }
  }
  std::map<std::string, Totals> totals;
  for (size_t i = first; i < spans_.size(); ++i) {
    Totals& t = totals[spans_[i].name];
    t.duration_ns += spans_[i].duration_ns();
    t.self_ns += spans_[i].duration_ns() - covered[i];
    t.count += 1;
  }
  // Replayed children can run a little faster or slower than the call they
  // stand for; clamp per layer total rather than per span.
  for (auto& [name, t] : totals) t.self_ns = std::max<int64_t>(0, t.self_ns);
  return totals;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"query\": %zu, \"name\": \"%s\", \"parent\": %d, "
                 "\"start_ns\": %lld, \"end_ns\": %lld, \"cpu_ns\": %lld, "
                 "\"derived\": %s}\n",
                 s.query, s.name, s.parent, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.cpu_ns), s.derived ? "true" : "false");
  }
  return std::fclose(f) == 0;
}

LayerCounts& LayerCounts::operator+=(const LayerCounts& other) {
  check_calls += other.check_calls;
  check_memo_hits += other.check_memo_hits;
  earley_items += other.earley_items;
  source_calls += other.source_calls;
  source_answers += other.source_answers;
  rows_returned += other.rows_returned;
  rows_scanned += other.rows_scanned;
  rejections += other.rejections;
  return *this;
}

namespace {

LayerCounts Minus(const LayerCounts& after, const LayerCounts& before) {
  LayerCounts d;
  d.check_calls = after.check_calls - before.check_calls;
  d.check_memo_hits = after.check_memo_hits - before.check_memo_hits;
  d.earley_items = after.earley_items - before.earley_items;
  d.source_calls = after.source_calls - before.source_calls;
  d.source_answers = after.source_answers - before.source_answers;
  d.rows_returned = after.rows_returned - before.rows_returned;
  d.rows_scanned = after.rows_scanned - before.rows_scanned;
  d.rejections = after.rejections - before.rejections;
  return d;
}

}  // namespace

Mirror::Mirror(gencompact::Mediator* mediator, Tracer* tracer,
               const std::vector<std::string>& sources,
               const gencompact::Mediator::Options& options)
    : mediator_(mediator),
      tracer_(tracer),
      cache_(options.cache_capacity, options.cache_shards) {
  for (const std::string& name : sources) {
    entries_.push_back(mediator_->catalog()->Find(name).value());
  }
}

LayerCounts Mirror::ReadCounts() const {
  LayerCounts c;
  for (CatalogEntry* entry : entries_) {
    const gencompact::Checker* checker = entry->handle()->checker();
    c.check_calls += checker->num_checks();
    c.check_memo_hits += checker->num_cache_hits();
    c.earley_items += checker->total_earley_items();
    const gencompact::Source::Stats stats = entry->source()->stats();
    c.source_calls += stats.queries_received;
    c.source_answers += stats.queries_answered;
    c.rows_returned += stats.rows_returned;
    c.rows_scanned += stats.queries_answered * entry->table().num_rows();
    c.rejections += stats.queries_rejected;
  }
  return c;
}

void Mirror::AddWait(int span) {
  const Span& s = tracer_->span(span);
  tracer_->AddDerived("exec.source_wait", span, s.duration_ns() - s.cpu_ns);
}

MirrorOutcome Mirror::Run(const std::string& sql) {
  const LayerCounts before = ReadCounts();
  const int root = tracer_->Begin("query", -1);
  // Mediator::Query's dispatch: joins of three or more sources go to the
  // federation processor, two-source joins to the join processor.
  const int parse = tracer_->Begin("mediator.parse", root);
  size_t relations = 1;
  if (gencompact::IsJoinQuery(sql)) {
    const auto parsed = gencompact::ParseFederatedSql(sql);
    relations = parsed.ok() ? parsed->sources.size() : 0;
  }
  tracer_->End(parse);

  MirrorOutcome out;
  if (relations == 1) {
    out = RunSingle(sql, root);
  } else if (relations > 2) {
    out = RunFederated(sql, root);
  } else {
    out = RunJoin(sql, root);
  }
  out.root = root;
  // Counts were snapshotted by the Run* helper when the root closed; make
  // them deltas.
  out.counts = Minus(out.counts, before);
  return out;
}

MirrorOutcome Mirror::RunSingle(const std::string& sql, int root) {
  MirrorOutcome out;
  const auto fail = [&](const Status& status) {
    if (tracer_->span(root).end_ns == 0) tracer_->End(root);
    out.counts = ReadCounts();
    out.error = status.ToString();
    return out;
  };

  int span = tracer_->Begin("mediator.parse", root);
  const Result<gencompact::ParsedQuery> parsed = gencompact::ParseSql(sql);
  if (!parsed.ok()) return fail(parsed.status());
  const Result<CatalogEntry*> found = mediator_->catalog()->Find(parsed->source);
  if (!found.ok()) return fail(found.status());
  CatalogEntry* entry = *found;
  AttributeSet attrs = entry->schema().AllAttributes();
  if (!parsed->select_list.empty()) {
    Result<AttributeSet> made = entry->schema().MakeSet(parsed->select_list);
    if (!made.ok()) return fail(made.status());
    attrs = *made;
  }
  tracer_->End(span);

  span = tracer_->Begin("expr.simplify", root);
  const ConditionPtr condition = gencompact::SimplifyCondition(parsed->condition);
  tracer_->End(span);
  if (condition == nullptr) {
    return fail(Status::InvalidArgument("benchmark query simplifies to false"));
  }

  span = tracer_->Begin("planner.plan_cache", root);
  const gencompact::PlanCacheKey key = PlanCache::MakeKey(
      entry->source_id(), Strategy::kGenCompact, *condition, attrs);
  const std::optional<PlanPtr> cached = cache_.Lookup(key);
  tracer_->End(span);

  PlanPtr plan;
  int plan_span = -1;
  uint64_t before_plan_items = 0;
  if (cached.has_value()) {
    plan = *cached;
  } else {
    before_plan_items = ReadCounts().earley_items;
    plan_span = tracer_->Begin("planner.plan", root);
    Result<PlanPtr> planned =
        gencompact::MakePlanner(Strategy::kGenCompact, entry->handle())
            ->Plan(condition, attrs);
    tracer_->End(plan_span);
    if (!planned.ok()) return fail(planned.status());
    plan = *planned;

    span = tracer_->Begin("plan.validate", root);
    const Status valid =
        gencompact::ValidatePlanFor(*plan, attrs, entry->handle()->checker());
    tracer_->End(span);
    if (!valid.ok()) return fail(valid);

    span = tracer_->Begin("planner.plan_cache", root);
    cache_.Insert(key, plan, condition);
    tracer_->End(span);
  }

  const int exec = tracer_->Begin("exec.execute", root);
  Executor executor(entry->source());
  Result<RowSet> rows = executor.Execute(*plan);
  tracer_->End(exec);
  tracer_->End(root);
  out.counts = ReadCounts();
  if (!rows.ok()) return fail(rows.status());

  out.ok = true;
  out.digest = DigestRowSet(*rows);
  const gencompact::ExecStats stats = executor.stats();
  out.source_queries = stats.source_queries;
  const gencompact::SourceDescription& description =
      entry->handle()->description();
  out.estimated_cost = entry->handle()->cost_model().PlanCost(*plan);
  out.true_cost = stats.TrueCost(description.k1(), description.k2());

  // Attribution, outside the root span. Check work: the same condition
  // planned again on the same handle, with the memo now warm.
  if (plan_span >= 0) {
    const gencompact::Checker* checker = entry->handle()->checker();
    out.plan_span = plan_span;
    out.plan_items = out.counts.earley_items - before_plan_items;
    const uint64_t items = checker->total_earley_items();
    const int64_t start = WallNs();
    (void)gencompact::MakePlanner(Strategy::kGenCompact, entry->handle())
        ->Plan(condition, attrs);
    out.replan_ns = WallNs() - start;
    out.replan_items = checker->total_earley_items() - items;
  }
  // Source round trips and scans: replay each distinct source query.
  std::vector<const PlanNode*> queries;
  plan->CollectSourceQueries(&queries);
  std::set<std::pair<uint64_t, uint64_t>> seen;
  for (const PlanNode* query : queries) {
    if (!seen.insert({query->condition()->id(), query->attrs().bits()}).second) {
      continue;
    }
    const int call = tracer_->Begin("exec.source_call", exec, /*derived=*/true);
    (void)entry->source()->Execute(*query->condition(), query->attrs());
    tracer_->End(call);
    const int scan = tracer_->Begin("exec.scan", call, /*derived=*/true);
    (void)gencompact::ScanTable(entry->table(), *query->condition(),
                                query->attrs(), gencompact::ScanOptions{});
    tracer_->End(scan);
    AddWait(call);
  }
  return out;
}

MirrorOutcome Mirror::RunFederated(const std::string& sql, int root) {
  MirrorOutcome out;
  const auto fail = [&](const Status& status) {
    if (tracer_->span(root).end_ns == 0) tracer_->End(root);
    out.counts = ReadCounts();
    out.error = status.ToString();
    return out;
  };

  int span = tracer_->Begin("mediator.parse", root);
  const auto parsed = gencompact::ParseFederatedSql(sql);
  if (!parsed.ok()) return fail(parsed.status());
  FederatedQuery query;
  query.sources = parsed->sources;
  for (const auto& [l, r] : parsed->keys) query.keys.push_back({l, r});
  query.condition = parsed->condition;
  query.select = parsed->select_list;
  std::vector<CatalogEntry*> entries;
  for (const std::string& name : parsed->sources) {
    const Result<CatalogEntry*> found = mediator_->catalog()->Find(name);
    if (!found.ok()) return fail(found.status());
    entries.push_back(*found);
  }
  tracer_->End(span);

  // The mediator's defaults; no worker pool, so the run stays sequential.
  FederationProcessor processor(std::move(entries), FederationOptions{});
  const int exec = tracer_->Begin("mediator.federation_execute", root);
  Result<RowSet> rows = processor.Execute(query);
  tracer_->End(exec);
  const FederationExecStats stats = processor.stats();
  // Mediator::QueryFederated plans once more for the estimate.
  span = tracer_->Begin("mediator.federation_plan", root);
  const auto outcome = processor.Plan(query);
  tracer_->End(span);
  tracer_->End(root);
  out.counts = ReadCounts();
  if (!rows.ok()) return fail(rows.status());

  out.ok = true;
  out.digest = DigestRowSet(*rows);
  out.source_queries = stats.exec.source_queries;
  out.true_cost = stats.true_cost;
  out.estimated_cost = outcome.ok() ? outcome->estimated_cost : 0.0;
  out.dp_subsets = stats.dp_subsets;
  out.bind_edges = stats.bind_edges;
  AddWait(exec);
  return out;
}

MirrorOutcome Mirror::RunJoin(const std::string& sql, int root) {
  MirrorOutcome out;
  out.is_mediator_call = true;
  const int call = tracer_->Begin("mediator.join_query", root);
  const auto result = mediator_->Query(sql);
  tracer_->End(call);
  tracer_->End(root);
  out.counts = ReadCounts();
  if (!result.ok()) {
    out.error = result.status().ToString();
    return out;
  }
  out.ok = true;
  out.digest = DigestRowSet(result->rows);
  out.source_queries = result->exec.source_queries;
  out.estimated_cost = result->estimated_cost;
  out.true_cost = result->true_cost;
  AddWait(call);
  return out;
}

}  // namespace perfbench
