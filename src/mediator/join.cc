#include "mediator/join.h"

#include <cmath>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "expr/canonical.h"
#include "expr/condition_eval.h"
#include "plan/plan_validator.h"
#include "planner/gen_compact.h"

namespace gencompact {

const char* JoinMethodName(JoinMethod method) {
  switch (method) {
    case JoinMethod::kIndependent:
      return "independent";
    case JoinMethod::kBind:
      return "bind-join";
  }
  return "?";
}

ConditionPtr BindBatchCondition(const ConditionPtr& cond,
                                const std::string& key_attr,
                                const std::vector<Value>& values) {
  std::vector<ConditionPtr> eqs;
  eqs.reserve(values.size());
  for (const Value& v : values) {
    eqs.push_back(ConditionNode::Atom(key_attr, CompareOp::kEq, v));
  }
  ConditionPtr in_list = ConditionNode::Or(std::move(eqs));
  if (cond->is_true()) return in_list;
  std::vector<ConditionPtr> conjuncts =
      cond->kind() == ConditionNode::Kind::kAnd
          ? cond->children()
          : std::vector<ConditionPtr>{cond};
  conjuncts.push_back(std::move(in_list));
  return ConditionNode::And(std::move(conjuncts));
}

namespace {

std::string Qualify(const std::string& source, const std::string& attr) {
  return source + "." + attr;
}

/// "src.attr" -> "attr" when the qualifier matches `source`.
std::optional<std::string> Unqualify(const std::string& name,
                                     const std::string& source) {
  if (name.size() > source.size() + 1 &&
      name.compare(0, source.size(), source) == 0 &&
      name[source.size()] == '.') {
    return name.substr(source.size() + 1);
  }
  return std::nullopt;
}

/// Rewrites every atom's attribute through `rename`; structure unchanged.
ConditionPtr RenameAttributes(
    const ConditionPtr& cond,
    const std::function<std::string(const std::string&)>& rename) {
  switch (cond->kind()) {
    case ConditionNode::Kind::kTrue:
      return cond;
    case ConditionNode::Kind::kAtom: {
      const AtomicCondition& atom = cond->atom();
      return ConditionNode::Atom(rename(atom.attribute), atom.op, atom.constant);
    }
    case ConditionNode::Kind::kAnd:
    case ConditionNode::Kind::kOr: {
      std::vector<ConditionPtr> children;
      children.reserve(cond->children().size());
      for (const ConditionPtr& child : cond->children()) {
        children.push_back(RenameAttributes(child, rename));
      }
      return ConditionNode::Connector(cond->kind(), std::move(children));
    }
  }
  return cond;
}

/// Which of the two sources a (qualified) condition references.
struct SourceRefs {
  bool left = false;
  bool right = false;
  bool unknown = false;
  std::string unknown_name;
};

void CollectRefs(const ConditionNode& cond, const std::string& left_source,
                 const Schema& left_schema, const std::string& right_source,
                 const Schema& right_schema, SourceRefs* refs) {
  if (cond.is_atom()) {
    const std::string& name = cond.atom().attribute;
    const std::optional<std::string> l = Unqualify(name, left_source);
    if (l.has_value() && left_schema.IndexOf(*l).has_value()) {
      refs->left = true;
      return;
    }
    const std::optional<std::string> r = Unqualify(name, right_source);
    if (r.has_value() && right_schema.IndexOf(*r).has_value()) {
      refs->right = true;
      return;
    }
    refs->unknown = true;
    refs->unknown_name = name;
    return;
  }
  for (const ConditionPtr& child : cond.children()) {
    CollectRefs(*child, left_source, left_schema, right_source, right_schema,
                refs);
  }
}

}  // namespace

Result<Schema> JoinProcessor::OutputSchema(const JoinQuery& query) const {
  const Schema& ls = left_->schema();
  const Schema& rs = right_->schema();
  if (ls.num_attributes() + rs.num_attributes() > 64) {
    return Status::InvalidArgument(
        "joined schema exceeds the 64-attribute limit");
  }
  std::vector<AttributeDef> attrs;
  for (const AttributeDef& a : ls.attributes()) {
    attrs.push_back({Qualify(query.left_source, a.name), a.type});
  }
  for (const AttributeDef& a : rs.attributes()) {
    attrs.push_back({Qualify(query.right_source, a.name), a.type});
  }
  return Schema(std::move(attrs));
}

Result<JoinProcessor::SplitCondition> JoinProcessor::Split(
    const JoinQuery& query) const {
  const Schema& left_schema = left_->schema();
  const Schema& right_schema = right_->schema();

  SplitCondition split;
  std::vector<ConditionPtr> left_conjuncts;
  std::vector<ConditionPtr> right_conjuncts;
  std::vector<ConditionPtr> residual_conjuncts;

  const ConditionPtr canonical = Canonicalize(query.condition != nullptr
                                                  ? query.condition
                                                  : ConditionNode::True());
  std::vector<ConditionPtr> conjuncts;
  if (canonical->is_true()) {
    // nothing to push
  } else if (canonical->kind() == ConditionNode::Kind::kAnd) {
    conjuncts = canonical->children();
  } else {
    conjuncts = {canonical};
  }

  for (const ConditionPtr& conjunct : conjuncts) {
    SourceRefs refs;
    CollectRefs(*conjunct, query.left_source, left_schema, query.right_source,
                right_schema, &refs);
    if (refs.unknown) {
      return Status::NotFound("join condition references unknown attribute '" +
                              refs.unknown_name +
                              "' (use source-qualified names)");
    }
    if (refs.left && !refs.right) {
      left_conjuncts.push_back(RenameAttributes(
          conjunct, [&](const std::string& name) {
            return *Unqualify(name, query.left_source);
          }));
    } else if (refs.right && !refs.left) {
      right_conjuncts.push_back(RenameAttributes(
          conjunct, [&](const std::string& name) {
            return *Unqualify(name, query.right_source);
          }));
    } else {
      residual_conjuncts.push_back(conjunct);
    }
  }

  split.left = left_conjuncts.empty() ? ConditionNode::True()
                                      : ConditionNode::And(std::move(left_conjuncts));
  split.right = right_conjuncts.empty()
                    ? ConditionNode::True()
                    : ConditionNode::And(std::move(right_conjuncts));
  split.residual = residual_conjuncts.empty()
                       ? ConditionNode::True()
                       : ConditionNode::And(std::move(residual_conjuncts));
  return split;
}

namespace {

struct SideNeeds {
  AttributeSet attrs;            // unqualified positions in the side schema
  std::vector<int> key_indices;  // join-key positions, in JoinKey order
};

/// Attributes a side must provide: its share of the SELECT list, of the
/// residual condition, and all its join keys.
Result<SideNeeds> ComputeNeeds(const JoinQuery& query, bool is_left,
                               const Schema& schema,
                               const ConditionPtr& residual) {
  const std::string& source = is_left ? query.left_source : query.right_source;
  SideNeeds needs;

  const auto add_qualified = [&](const std::string& name) -> Result<bool> {
    const std::optional<std::string> local = Unqualify(name, source);
    if (!local.has_value()) return false;
    GC_ASSIGN_OR_RETURN(const int index, schema.RequireIndex(*local));
    needs.attrs.Add(index);
    return true;
  };

  if (query.select.empty()) {
    needs.attrs = schema.AllAttributes();
  } else {
    for (const std::string& name : query.select) {
      GC_ASSIGN_OR_RETURN(const bool mine, add_qualified(name));
      (void)mine;  // the other side picks it up; unknown names error below
    }
  }
  // Residual attributes (qualified).
  if (residual != nullptr && !residual->is_true()) {
    std::vector<const ConditionNode*> stack = {residual.get()};
    while (!stack.empty()) {
      const ConditionNode* node = stack.back();
      stack.pop_back();
      if (node->is_atom()) {
        GC_ASSIGN_OR_RETURN(const bool mine,
                            add_qualified(node->atom().attribute));
        (void)mine;
      }
      for (const ConditionPtr& child : node->children()) {
        stack.push_back(child.get());
      }
    }
  }
  // Join keys.
  for (const JoinKey& key : query.keys) {
    const std::string& qualified = is_left ? key.left : key.right;
    const std::optional<std::string> local = Unqualify(qualified, source);
    if (!local.has_value()) {
      return Status::InvalidArgument("join key '" + qualified +
                                     "' is not qualified by source '" + source +
                                     "'");
    }
    GC_ASSIGN_OR_RETURN(const int index, schema.RequireIndex(*local));
    needs.attrs.Add(index);
    needs.key_indices.push_back(index);
  }
  return needs;
}

Result<PlanPtr> PlanSide(CatalogEntry* entry, const ConditionPtr& cond,
                         const AttributeSet& attrs) {
  GenCompactPlanner planner(entry->handle());
  GC_ASSIGN_OR_RETURN(PlanPtr plan, planner.Plan(cond, attrs));
  GC_RETURN_IF_ERROR(ValidatePlanFor(*plan, attrs, entry->handle()->checker()));
  return plan;
}

/// Folds one executor pass into the running right-side totals — failover can
/// run the right side more than once, and every attempt's work is real cost.
void AccumulateExecStats(ExecStats* into, const ExecStats& from) {
  into->source_queries += from.source_queries;
  into->rows_transferred += from.rows_transferred;
  into->retries += from.retries;
  into->failed_sub_queries += from.failed_sub_queries;
  into->breaker_rejections += from.breaker_rejections;
  into->deadlines_exceeded += from.deadlines_exceeded;
  into->dropped_branches += from.dropped_branches;
  into->hedges_launched += from.hedges_launched;
  into->hedges_won += from.hedges_won;
  into->hedges_cancelled += from.hedges_cancelled;
}

/// Runs the join's right side against `entry`. `right_plan` is the
/// pre-planned independent plan for the primary; pass nullptr for a failover
/// alternate — its capabilities may differ from the primary's, so the side
/// is re-planned here against the alternate's own description. (Bind-join
/// batches are always planned per entry anyway.) Executor counters are
/// accumulated into `stats->right`.
Result<RowSet> RunRightSide(CatalogEntry* entry, JoinMethod method,
                            PlanPtr right_plan, const ConditionPtr& right_cond,
                            const SideNeeds& right_needs,
                            const RowSet& left_rows, int left_key,
                            size_t bind_batch_size, ExecOptions exec_options,
                            JoinExecStats* stats) {
  const size_t batch_width = exec_options.batch_width;
  Executor exec(entry->source(), /*pool=*/nullptr, exec_options);
  Result<RowSet> rows = [&]() -> Result<RowSet> {
    if (method == JoinMethod::kIndependent) {
      if (right_plan == nullptr) {
        GC_ASSIGN_OR_RETURN(right_plan,
                            PlanSide(entry, right_cond, right_needs.attrs));
      }
      return exec.Execute(*right_plan);
    }
    // Bind-join: collect distinct left values of the first join key, then
    // one batched value-list query per chunk.
    const int left_slot = left_rows.layout().SlotOf(left_key);
    std::vector<Value> distinct;
    {
      std::unordered_set<Value, ValueHash> seen;
      for (const Row& row : left_rows.rows()) {
        const Value& v = row.value(static_cast<size_t>(left_slot));
        if (v.is_null()) continue;
        if (seen.insert(v).second) distinct.push_back(v);
      }
    }
    const std::string& key_attr =
        entry->schema().attribute(right_needs.key_indices[0]).name;
    RowSet acc(RowLayout(right_needs.attrs, entry->schema().num_attributes()));
    for (size_t start = 0; start < distinct.size(); start += bind_batch_size) {
      const size_t end = std::min(distinct.size(), start + bind_batch_size);
      const std::vector<Value> batch(distinct.begin() + start,
                                     distinct.begin() + end);
      const ConditionPtr batch_cond =
          BindBatchCondition(right_cond, key_attr, batch);
      GC_ASSIGN_OR_RETURN(PlanPtr batch_plan,
                          PlanSide(entry, batch_cond, right_needs.attrs));
      GC_ASSIGN_OR_RETURN(RowSet batch_rows, exec.Execute(*batch_plan));
      if (batch_width > 0) {
        // PR 6 data plane: fold each batch in place — rows move with their
        // cached hashes instead of being copied into a fresh union per
        // probe (which was quadratic in the accumulated size).
        acc.MergeFrom(std::move(batch_rows));
      } else {
        acc = RowSet::UnionOf(acc, batch_rows);
      }
      ++stats->bind_batches;
    }
    return acc;
  }();
  AccumulateExecStats(&stats->right, exec.stats());
  if (rows.ok()) {
    // Only a side that actually contributed rows can mark the answer
    // partial; failed attempts are discarded wholesale (and surface as an
    // error or a failover instead).
    for (TruncationRecord record : exec.truncation_records()) {
      stats->truncations.push_back(std::move(record));
    }
    for (std::string dropped : exec.dropped_sub_queries()) {
      stats->dropped_sub_queries.push_back(std::move(dropped));
    }
  }
  return rows;
}

}  // namespace

Result<JoinPlanOutcome> JoinProcessor::Plan(const JoinQuery& query) {
  if (query.keys.empty()) {
    return Status::InvalidArgument("join requires at least one key pair");
  }
  GC_ASSIGN_OR_RETURN(const SplitCondition split, Split(query));
  GC_ASSIGN_OR_RETURN(
      const SideNeeds left_needs,
      ComputeNeeds(query, /*is_left=*/true, left_->schema(), split.residual));
  GC_ASSIGN_OR_RETURN(
      const SideNeeds right_needs,
      ComputeNeeds(query, /*is_left=*/false, right_->schema(), split.residual));

  JoinPlanOutcome outcome;
  outcome.residual = split.residual;
  GC_ASSIGN_OR_RETURN(outcome.left_plan,
                      PlanSide(left_, split.left, left_needs.attrs));
  const double left_cost =
      left_->handle()->cost_model().PlanCost(*outcome.left_plan);

  // Option A: independent right plan.
  double independent_cost = -1;
  Result<PlanPtr> independent = PlanSide(right_, split.right, right_needs.attrs);
  if (independent.ok()) {
    independent_cost =
        right_->handle()->cost_model().PlanCost(**independent);
  }

  // Option B: bind-join on the first key. Feasibility is probed with
  // type-representative constants (grammars match constants by type).
  double bind_cost = -1;
  if (options_.enable_bind) {
    const std::string& key_attr =
        right_->schema().attribute(right_needs.key_indices[0]).name;
    const ValueType key_type =
        right_->schema().attribute(right_needs.key_indices[0]).type;
    std::vector<Value> probe_values;
    for (size_t i = 0; i < std::max<size_t>(options_.bind_batch_size, 1); ++i) {
      probe_values.push_back(key_type == ValueType::kString
                                 ? Value::String("probe" + std::to_string(i))
                                 : Value::Int(static_cast<int64_t>(i)));
    }
    const ConditionPtr probe =
        BindBatchCondition(split.right, key_attr, probe_values);
    if (right_->handle()->checker()->Supports(*probe, right_needs.attrs)) {
      // Estimated: one right query per batch of distinct left key values.
      const double left_keys = std::max(
          1.0, left_->handle()->cost_model().EstimateResultRows(
                   *split.left, [&] {
                     AttributeSet keys;
                     keys.Add(left_needs.key_indices[0]);
                     return keys;
                   }()));
      const size_t effective_batch = static_cast<size_t>(std::min<double>(
          static_cast<double>(options_.bind_batch_size),
          std::ceil(left_keys)));
      const double batches =
          std::ceil(left_keys / static_cast<double>(effective_batch));
      // Cost-estimate with a batch of the size actually expected, using
      // REAL sampled key values from the right source's statistics — the
      // fabricated feasibility-probe constants would estimate zero matches.
      std::vector<Value> cost_values;
      const int right_key = right_needs.key_indices[0];
      if (static_cast<size_t>(right_key) < right_->handle()->stats().num_attributes()) {
        for (const Value& v :
             right_->handle()->stats().attribute(right_key).sample_values) {
          if (cost_values.size() >= effective_batch) break;
          bool duplicate = false;
          for (const Value& existing : cost_values) {
            if (existing == v) {
              duplicate = true;
              break;
            }
          }
          if (!duplicate) cost_values.push_back(v);
        }
      }
      for (size_t i = cost_values.size(); i < effective_batch; ++i) {
        cost_values.push_back(probe_values[i]);
      }
      const ConditionPtr cost_probe =
          BindBatchCondition(split.right, key_attr, cost_values);
      const double per_batch_rows =
          right_->handle()->cost_model().EstimateResultRows(*cost_probe,
                                                            right_needs.attrs);
      bind_cost = batches * (right_->handle()->description().k1() +
                             right_->handle()->description().k2() *
                                 per_batch_rows);
    }
  }

  if (options_.force_method.has_value()) {
    outcome.method = *options_.force_method;
    if (outcome.method == JoinMethod::kIndependent) {
      if (!independent.ok()) return independent.status();
      outcome.right_plan = *independent;
      outcome.estimated_cost = left_cost + independent_cost;
    } else {
      if (bind_cost < 0) {
        return Status::NoFeasiblePlan(
            "bind-join forced but the right source does not support the "
            "bound value-list query shape");
      }
      outcome.estimated_cost = left_cost + bind_cost;
    }
    return outcome;
  }

  if (independent_cost < 0 && bind_cost < 0) {
    return Status::NoFeasiblePlan(
        "no feasible right-side strategy: the right source supports neither "
        "the pushed-down condition nor bound value lists");
  }
  if (bind_cost >= 0 && (independent_cost < 0 || bind_cost < independent_cost)) {
    outcome.method = JoinMethod::kBind;
    outcome.estimated_cost = left_cost + bind_cost;
  } else {
    outcome.method = JoinMethod::kIndependent;
    outcome.right_plan = *independent;
    outcome.estimated_cost = left_cost + independent_cost;
  }
  return outcome;
}

Result<RowSet> JoinProcessor::Execute(const JoinQuery& query) {
  stats_ = JoinExecStats();
  GC_ASSIGN_OR_RETURN(stats_.plan, Plan(query));
  const JoinPlanOutcome& outcome = stats_.plan;
  GC_ASSIGN_OR_RETURN(const SplitCondition split, Split(query));
  GC_ASSIGN_OR_RETURN(
      const SideNeeds left_needs,
      ComputeNeeds(query, /*is_left=*/true, left_->schema(), split.residual));
  GC_ASSIGN_OR_RETURN(
      const SideNeeds right_needs,
      ComputeNeeds(query, /*is_left=*/false, right_->schema(), split.residual));

  // Deadline budget: the left side may spend at most the whole budget; the
  // right side inherits whatever the left leaves over.
  Clock* clock = options_.clock != nullptr ? options_.clock : Clock::Real();
  const std::chrono::microseconds deadline = options_.deadline;
  const std::chrono::steady_clock::time_point started = clock->Now();

  const auto cap_deadline = [](RetryPolicy retry,
                               std::chrono::microseconds budget) {
    if (budget.count() > 0 && (retry.sub_query_deadline.count() == 0 ||
                               budget < retry.sub_query_deadline)) {
      retry.sub_query_deadline = budget;
    }
    return retry;
  };

  // Left side.
  ExecOptions left_options;
  left_options.batch_width = options_.batch_width;
  left_options.retry = cap_deadline(options_.retry, deadline);
  left_options.clock = clock;
  if (deadline.count() > 0) left_options.deadline = started + deadline;
  Executor left_exec(left_->source(), /*pool=*/nullptr, left_options);
  GC_ASSIGN_OR_RETURN(const RowSet left_rows,
                      left_exec.Execute(*outcome.left_plan));
  stats_.left = left_exec.stats();
  for (TruncationRecord record : left_exec.truncation_records()) {
    stats_.truncations.push_back(std::move(record));
  }
  for (std::string dropped : left_exec.dropped_sub_queries()) {
    stats_.dropped_sub_queries.push_back(std::move(dropped));
  }

  // What the left consumed comes off the right side's budget; an exhausted
  // budget sheds the right side before it is planned — no source contact.
  std::chrono::microseconds remaining = deadline;
  if (deadline.count() > 0) {
    const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
        clock->Now() - started);
    remaining = deadline - elapsed;
    if (remaining.count() <= 0) {
      return Status::DeadlineExceeded(
          "join deadline exhausted by the left side; the right side was not "
          "started");
    }
  }
  ExecOptions right_options;
  right_options.batch_width = options_.batch_width;
  right_options.retry = cap_deadline(options_.retry, remaining);
  right_options.clock = clock;
  if (deadline.count() > 0) right_options.deadline = started + deadline;

  // Right side: the primary entry first; on a *retryable* failure, each
  // schema-compatible alternate in turn (cross-source failover). Alternates
  // whose breaker is effectively open are skipped — they would only burn the
  // attempt. Non-retryable failures (infeasible plan, bad query) propagate
  // immediately: no replica can fix those.
  stats_.right_source_used = right_->name();
  Result<RowSet> right_result = RunRightSide(
      right_, outcome.method, outcome.right_plan, split.right, right_needs,
      left_rows, left_needs.key_indices[0], options_.bind_batch_size,
      right_options, &stats_);
  if (!right_result.ok() && IsRetryable(right_result.status().code())) {
    for (CatalogEntry* alternate : options_.right_alternates) {
      if (alternate == right_) continue;
      if (alternate->breaker() != nullptr &&
          alternate->breaker()->EffectiveState() ==
              CircuitBreaker::State::kOpen) {
        continue;
      }
      ++stats_.right_failovers;
      Result<RowSet> attempt = RunRightSide(
          alternate, outcome.method, /*right_plan=*/nullptr, split.right,
          right_needs, left_rows, left_needs.key_indices[0],
          options_.bind_batch_size, right_options, &stats_);
      if (attempt.ok()) {
        stats_.right_source_used = alternate->name();
        right_result = std::move(attempt);
        break;
      }
      // Alternate failed too (or can't support the shape): keep trying the
      // rest; the primary's error is what we report if all fail.
    }
  }
  if (!right_result.ok()) return right_result.status();
  const RowSet right_rows = std::move(right_result).value();

  // Joined schema: left needed attrs then right needed attrs, qualified.
  std::vector<AttributeDef> joined_attrs;
  for (int index : left_needs.attrs.Indices()) {
    joined_attrs.push_back({Qualify(query.left_source,
                                    left_->schema().attribute(index).name),
                            left_->schema().attribute(index).type});
  }
  for (int index : right_needs.attrs.Indices()) {
    joined_attrs.push_back({Qualify(query.right_source,
                                    right_->schema().attribute(index).name),
                            right_->schema().attribute(index).type});
  }
  const Schema joined_schema(joined_attrs);
  const RowLayout joined_layout(joined_schema.AllAttributes(),
                                joined_schema.num_attributes());

  // Output projection.
  AttributeSet select_attrs;
  if (query.select.empty()) {
    select_attrs = joined_schema.AllAttributes();
  } else {
    GC_ASSIGN_OR_RETURN(select_attrs, joined_schema.MakeSet(query.select));
  }
  const RowLayout out_layout(select_attrs, joined_schema.num_attributes());
  RowSet output(out_layout);

  const auto emit = [&](Row joined) -> Result<bool> {
    if (!outcome.residual->is_true()) {
      GC_ASSIGN_OR_RETURN(const bool keep,
                          EvalCondition(*outcome.residual, joined,
                                        joined_layout, joined_schema));
      if (!keep) return false;
    }
    ++stats_.joined_rows;
    output.Insert(joined_layout.Project(joined, out_layout));
    return true;
  };

  const auto key_slots = [](const RowLayout& layout,
                            const std::vector<int>& keys) {
    std::vector<size_t> slots;
    slots.reserve(keys.size());
    for (int key : keys) slots.push_back(static_cast<size_t>(layout.SlotOf(key)));
    return slots;
  };
  const std::vector<size_t> left_slots =
      key_slots(left_rows.layout(), left_needs.key_indices);
  const std::vector<size_t> right_slots =
      key_slots(right_rows.layout(), right_needs.key_indices);

  if (options_.batch_width > 0) {
    // Batch data plane through the join boundary: build and probe on folded
    // key-value hashes (no key Row is materialized), verify candidates by
    // direct slot comparison, and compose each joined row's hash from the
    // left row's cached hash plus the appended right values — the payloads
    // are never re-folded.
    const auto key_hash = [](const Row& row, const std::vector<size_t>& slots) {
      size_t h = Row::kEmptyHash;
      for (size_t slot : slots) h = Row::ExtendHash(h, &row.value(slot), 1);
      return h;
    };
    const auto keys_match = [&](const Row& l, const Row& r) {
      for (size_t i = 0; i < left_slots.size(); ++i) {
        if (!(l.value(left_slots[i]) == r.value(right_slots[i]))) return false;
      }
      return true;
    };
    std::unordered_map<size_t, std::vector<const Row*>> right_index;
    for (const Row& row : right_rows.rows()) {
      right_index[key_hash(row, right_slots)].push_back(&row);
    }
    for (const Row& left_row : left_rows.rows()) {
      const auto it = right_index.find(key_hash(left_row, left_slots));
      if (it == right_index.end()) continue;
      for (const Row* right_row : it->second) {
        if (!keys_match(left_row, *right_row)) continue;
        std::vector<Value> combined = left_row.values();
        combined.insert(combined.end(), right_row->values().begin(),
                        right_row->values().end());
        const size_t hash =
            Row::ExtendHash(left_row.Hash(), right_row->values());
        GC_RETURN_IF_ERROR(emit(Row(std::move(combined), hash)).status());
      }
    }
    return output;
  }

  // Row-at-a-time reference path (bit-identical to the original join).
  const auto key_tuple = [](const Row& row, const std::vector<size_t>& slots) {
    std::vector<Value> tuple;
    tuple.reserve(slots.size());
    for (size_t slot : slots) tuple.push_back(row.value(slot));
    return Row(std::move(tuple));
  };
  std::unordered_map<Row, std::vector<const Row*>, RowHash> right_index;
  for (const Row& row : right_rows.rows()) {
    right_index[key_tuple(row, right_slots)].push_back(&row);
  }
  for (const Row& left_row : left_rows.rows()) {
    const Row key = key_tuple(left_row, left_slots);
    const auto it = right_index.find(key);
    if (it == right_index.end()) continue;
    for (const Row* right_row : it->second) {
      std::vector<Value> combined = left_row.values();
      combined.insert(combined.end(), right_row->values().begin(),
                      right_row->values().end());
      GC_RETURN_IF_ERROR(emit(Row(std::move(combined))).status());
    }
  }
  return output;
}

}  // namespace gencompact
