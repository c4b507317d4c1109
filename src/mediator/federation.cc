#include "mediator/federation.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "expr/canonical.h"
#include "expr/condition_eval.h"
#include "plan/plan_validator.h"
#include "planner/gen_compact.h"

namespace gencompact {

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
      return ConditionNode::Atom(rename(atom.attribute), atom.op,
                                 atom.constant);
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

Result<PlanPtr> PlanLeaf(CatalogEntry* entry, const ConditionPtr& cond,
                         const AttributeSet& attrs) {
  GenCompactPlanner planner(entry->handle());
  GC_ASSIGN_OR_RETURN(PlanPtr plan, planner.Plan(cond, attrs));
  GC_RETURN_IF_ERROR(
      ValidatePlanFor(*plan, attrs, entry->handle()->checker()));
  return plan;
}

std::vector<Value> ProbeValues(ValueType type, size_t count) {
  std::vector<Value> values;
  values.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    values.push_back(type == ValueType::kString
                         ? Value::String("probe" + std::to_string(i))
                         : Value::Int(static_cast<int64_t>(i)));
  }
  return values;
}

}  // namespace

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

// ---------------------------------------------------------------------------
// Prepared query-graph state.

struct FederationProcessor::Prepared {
  const FederatedQuery* query = nullptr;

  struct Rel {
    ConditionPtr pushdown;       ///< unqualified, over the relation schema
    AttributeSet needs;          ///< positions the relation must provide
    std::vector<int> need_list;  ///< needs.Indices()
    RowLayout segment;           ///< slot lookup within the fetched segment
    int base = 0;                ///< first joined-schema position

    Rel() : segment(AttributeSet(), 0) {}
  };
  std::vector<Rel> rels;

  struct Edge {
    int a = 0;
    int b = 0;
    /// Equi-join attr pairs, oriented (attr in a, attr in b); the first
    /// pair's key drives bind-joins over this edge.
    std::vector<std::pair<int, int>> keys;
  };
  std::vector<Edge> edges;

  ConditionPtr residual;  ///< qualified; True if none
  Schema joined_schema;   ///< needed attrs per relation, FROM order, qualified
};

/// One partial join result during tree execution: dedup'd rows whose slots
/// are the concatenated needed-attribute segments of the member relations,
/// ascending by relation index (which is exactly the joined-schema position
/// order restricted to the subset).
struct FederationProcessor::Intermediate {
  uint64_t set = 0;
  RowSet rows;
  std::vector<int> rels;           ///< member relation indices, ascending
  std::vector<size_t> rel_offset;  ///< slot offset of each member's segment
  size_t width = 0;

  /// One fetched relation on its own.
  static Intermediate Of(const Prepared& prepared, int rel, RowSet rows) {
    Intermediate single;
    single.set = uint64_t{1} << rel;
    single.rels = {rel};
    single.rel_offset = {0};
    single.width = prepared.rels[rel].need_list.size();
    single.rows = std::move(rows);
    return single;
  }

  /// Slot of (relation, relation-schema attribute) within these rows.
  int SlotOf(const Prepared& prepared, int rel, int attr) const {
    for (size_t i = 0; i < rels.size(); ++i) {
      if (rels[i] == rel) {
        return static_cast<int>(rel_offset[i]) +
               prepared.rels[rel].segment.SlotOf(attr);
      }
    }
    return -1;
  }
};

FederationProcessor::FederationProcessor(std::vector<CatalogEntry*> entries,
                                         FederationOptions options)
    : entries_(std::move(entries)), options_(std::move(options)) {}

Result<Schema> FederationProcessor::OutputSchema(
    const FederatedQuery& query) const {
  size_t total = 0;
  for (const CatalogEntry* entry : entries_) {
    total += entry->schema().num_attributes();
  }
  if (total > 64) {
    return Status::InvalidArgument(
        "joined schema exceeds the 64-attribute limit");
  }
  std::vector<AttributeDef> attrs;
  for (size_t i = 0; i < entries_.size(); ++i) {
    for (const AttributeDef& a : entries_[i]->schema().attributes()) {
      attrs.push_back({Qualify(query.sources[i], a.name), a.type});
    }
  }
  return Schema(std::move(attrs));
}

Result<FederationProcessor::Prepared> FederationProcessor::PrepareQuery(
    const FederatedQuery& query) const {
  if (query.sources.size() < 2) {
    return Status::InvalidArgument("federated query needs at least 2 sources");
  }
  if (entries_.size() != query.sources.size()) {
    return Status::InvalidArgument(
        "catalog entries do not align with the query's FROM list");
  }
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i]->name() != query.sources[i]) {
      return Status::InvalidArgument("catalog entry '" + entries_[i]->name() +
                                     "' does not match source '" +
                                     query.sources[i] + "'");
    }
  }
  if (query.keys.empty()) {
    return Status::InvalidArgument("federated query needs join key pairs");
  }
  const size_t n = entries_.size();
  if (n > 63) {
    return Status::InvalidArgument("too many relations (limit 63)");
  }

  Prepared prepared;
  prepared.query = &query;
  prepared.rels.resize(n);

  // "src.attr" -> (relation, attribute position); nullopt if unresolvable.
  const auto resolve =
      [&](const std::string& name) -> std::optional<std::pair<int, int>> {
    for (size_t i = 0; i < n; ++i) {
      const std::optional<std::string> local =
          Unqualify(name, query.sources[i]);
      if (!local.has_value()) continue;
      const std::optional<int> index = entries_[i]->schema().IndexOf(*local);
      if (index.has_value()) return std::make_pair(static_cast<int>(i), *index);
    }
    return std::nullopt;
  };

  // Split the condition: single-relation conjuncts push down (renamed to
  // unqualified); multi-relation conjuncts stay residual at the join root.
  const ConditionPtr canonical = Canonicalize(
      query.condition != nullptr ? query.condition : ConditionNode::True());
  std::vector<ConditionPtr> conjuncts;
  if (canonical->is_true()) {
    // nothing to push
  } else if (canonical->kind() == ConditionNode::Kind::kAnd) {
    conjuncts = canonical->children();
  } else {
    conjuncts = {canonical};
  }
  std::vector<std::vector<ConditionPtr>> pushdown(n);
  std::vector<ConditionPtr> residual;
  for (const ConditionPtr& conjunct : conjuncts) {
    uint64_t refs = 0;
    std::string unknown;
    std::vector<const ConditionNode*> stack = {conjunct.get()};
    while (!stack.empty()) {
      const ConditionNode* node = stack.back();
      stack.pop_back();
      if (node->is_atom()) {
        const std::optional<std::pair<int, int>> where =
            resolve(node->atom().attribute);
        if (!where.has_value()) {
          unknown = node->atom().attribute;
          break;
        }
        refs |= uint64_t{1} << where->first;
      }
      for (const ConditionPtr& child : node->children()) {
        stack.push_back(child.get());
      }
    }
    if (!unknown.empty()) {
      return Status::NotFound("condition references unknown attribute '" +
                              unknown + "' (use source-qualified names)");
    }
    if (refs != 0 && (refs & (refs - 1)) == 0) {
      int rel = 0;
      while (((refs >> rel) & 1u) == 0) ++rel;
      pushdown[rel].push_back(
          RenameAttributes(conjunct, [&](const std::string& name) {
            return *Unqualify(name, query.sources[rel]);
          }));
    } else if (refs != 0) {
      residual.push_back(conjunct);
    }
  }
  for (size_t i = 0; i < n; ++i) {
    prepared.rels[i].pushdown =
        pushdown[i].empty() ? ConditionNode::True()
                            : ConditionNode::And(std::move(pushdown[i]));
  }
  prepared.residual = residual.empty()
                          ? ConditionNode::True()
                          : ConditionNode::And(std::move(residual));

  // Join keys -> query-graph edges (a < b; parallel key pairs merge).
  for (const JoinKey& key : query.keys) {
    const std::optional<std::pair<int, int>> l = resolve(key.left);
    const std::optional<std::pair<int, int>> r = resolve(key.right);
    if (!l.has_value() || !r.has_value()) {
      return Status::NotFound("join key '" +
                              (l.has_value() ? key.right : key.left) +
                              "' does not resolve to a registered source "
                              "attribute");
    }
    if (l->first == r->first) {
      return Status::InvalidArgument(
          "join key pair references a single source: " + key.left + " = " +
          key.right);
    }
    int a = l->first, a_attr = l->second;
    int b = r->first, b_attr = r->second;
    if (a > b) {
      std::swap(a, b);
      std::swap(a_attr, b_attr);
    }
    Prepared::Edge* edge = nullptr;
    for (Prepared::Edge& e : prepared.edges) {
      if (e.a == a && e.b == b) {
        edge = &e;
        break;
      }
    }
    if (edge == nullptr) {
      prepared.edges.push_back({a, b, {}});
      edge = &prepared.edges.back();
    }
    edge->keys.emplace_back(a_attr, b_attr);
  }

  // Needed attributes per relation: its SELECT share, its residual
  // attributes, and every incident join key.
  std::vector<AttributeSet> needs(n);
  if (query.select.empty()) {
    for (size_t i = 0; i < n; ++i) needs[i] = entries_[i]->schema().AllAttributes();
  } else {
    for (const std::string& name : query.select) {
      const std::optional<std::pair<int, int>> where = resolve(name);
      if (!where.has_value()) {
        return Status::NotFound("SELECT references unknown attribute '" +
                                name + "'");
      }
      needs[where->first].Add(where->second);
    }
  }
  if (!prepared.residual->is_true()) {
    std::vector<const ConditionNode*> stack = {prepared.residual.get()};
    while (!stack.empty()) {
      const ConditionNode* node = stack.back();
      stack.pop_back();
      if (node->is_atom()) {
        const std::optional<std::pair<int, int>> where =
            resolve(node->atom().attribute);
        needs[where->first].Add(where->second);
      }
      for (const ConditionPtr& child : node->children()) {
        stack.push_back(child.get());
      }
    }
  }
  for (const Prepared::Edge& edge : prepared.edges) {
    for (const auto& [a_attr, b_attr] : edge.keys) {
      needs[edge.a].Add(a_attr);
      needs[edge.b].Add(b_attr);
    }
  }

  // Joined schema: each relation's needed attributes (ascending), qualified,
  // in FROM order.
  std::vector<AttributeDef> joined;
  for (size_t i = 0; i < n; ++i) {
    Prepared::Rel& rel = prepared.rels[i];
    rel.needs = needs[i];
    rel.need_list = needs[i].Indices();
    rel.segment =
        RowLayout(needs[i], entries_[i]->schema().num_attributes());
    rel.base = static_cast<int>(joined.size());
    for (int index : rel.need_list) {
      joined.push_back(
          {Qualify(query.sources[i], entries_[i]->schema().attribute(index).name),
           entries_[i]->schema().attribute(index).type});
    }
  }
  if (joined.size() > 64) {
    return Status::InvalidArgument(
        "joined schema exceeds the 64-attribute limit");
  }
  prepared.joined_schema = Schema(std::move(joined));
  return prepared;
}

Result<FederationPlanOutcome> FederationProcessor::PlanPrepared(
    const Prepared& prepared, const std::vector<bool>& avoid) {
  const size_t n = entries_.size();
  if (options_.force_method.has_value() && n != 2) {
    return Status::InvalidArgument(
        "force_method only applies to two-relation queries");
  }

  FederationPlanOutcome outcome;
  outcome.residual = prepared.residual;
  outcome.leaf_plans.assign(n, nullptr);
  JoinGraph& graph = outcome.graph;
  graph.fetch_cost.assign(n, -1.0);
  graph.rows.assign(n, 0.0);
  graph.bind_batch_size = options_.bind_batch_size;

  const bool force_bind =
      options_.force_method == EdgeMethod::kBind;
  const bool force_independent =
      options_.force_method == EdgeMethod::kIndependent;

  for (size_t i = 0; i < n; ++i) {
    const Prepared::Rel& rel = prepared.rels[i];
    graph.rows[i] = entries_[i]->handle()->cost_model().EstimateResultRows(
        *rel.pushdown, rel.needs);
    if (avoid[i] || (force_bind && i == 1)) continue;
    Result<PlanPtr> plan = PlanLeaf(entries_[i], rel.pushdown, rel.needs);
    if (plan.ok()) {
      graph.fetch_cost[i] =
          entries_[i]->handle()->cost_model().PlanCost(**plan);
      outcome.leaf_plans[i] = std::move(plan).value();
    }
  }

  for (const Prepared::Edge& edge : prepared.edges) {
    JoinEdge je;
    je.a = edge.a;
    je.b = edge.b;
    const auto ndv_of = [&](int rel, int attr) {
      return std::max<double>(
          1.0, static_cast<double>(
                   entries_[rel]->handle()->stats().attribute(attr).num_distinct));
    };
    je.selectivity = 1.0;
    for (const auto& [a_attr, b_attr] : edge.keys) {
      je.selectivity /= std::max(ndv_of(edge.a, a_attr), ndv_of(edge.b, b_attr));
    }
    je.a_ndv = ndv_of(edge.a, edge.keys[0].first);
    je.b_ndv = ndv_of(edge.b, edge.keys[0].second);

    // Bind feasibility per end: can this relation answer its pushdown ∧ a
    // value list on the edge's driving key? Probed with type-representative
    // constants (grammars match constants by type).
    const auto probe_bind = [&](int rel, int key_attr, bool* feasible,
                                double* setup, double* per_row) {
      *feasible = false;
      if (force_independent) return;
      const Prepared::Rel& r = prepared.rels[rel];
      const std::string& attr_name =
          entries_[rel]->schema().attribute(key_attr).name;
      const ConditionPtr probe = BindBatchCondition(
          r.pushdown, attr_name,
          ProbeValues(entries_[rel]->schema().attribute(key_attr).type,
                      std::max<size_t>(options_.bind_batch_size, 1)));
      if (!entries_[rel]->handle()->checker()->Supports(*probe, r.needs)) {
        return;
      }
      *feasible = true;
      *setup = entries_[rel]->handle()->cost_model().effective_k1();
      *per_row = entries_[rel]->handle()->description().k2();
    };
    probe_bind(edge.a, edge.keys[0].first, &je.bind_a, &je.bind_a_setup,
               &je.bind_a_per_row);
    probe_bind(edge.b, edge.keys[0].second, &je.bind_b, &je.bind_b_setup,
               &je.bind_b_per_row);
    graph.edges.push_back(je);
  }

  const uint64_t full = (uint64_t{1} << n) - 1;
  if (!JoinEnumerator::Connected(graph, full)) {
    return Status::InvalidArgument(
        "query graph is disconnected: add join conditions linking every "
        "source");
  }

  outcome.enumeration = JoinEnumerator::Enumerate(graph, options_.enumerate);
  if (!outcome.enumeration.feasible) {
    return Status::NoFeasiblePlan(
        "no feasible join order: some relation supports neither its "
        "pushed-down condition nor a bound value-list fetch");
  }
  outcome.estimated_cost = outcome.enumeration.best.cost;

  // Human-readable tree: "((a ind b) bind c)".
  const std::function<std::string(uint64_t)> render = [&](uint64_t set) {
    const SubsetPlan& node = outcome.enumeration.table.at(set);
    if (node.left == 0) {
      int r = 0;
      while (((set >> r) & 1u) == 0) ++r;
      return prepared.query->sources[r];
    }
    return "(" + render(node.left) +
           (node.method == EdgeMethod::kBind ? " bind " : " ind ") +
           render(node.right) + ")";
  };
  outcome.tree = render(outcome.enumeration.best.set);
  return outcome;
}

Result<FederationPlanOutcome> FederationProcessor::Plan(
    const FederatedQuery& query) {
  GC_ASSIGN_OR_RETURN(const Prepared prepared, PrepareQuery(query));
  return PlanPrepared(prepared, std::vector<bool>(entries_.size(), false));
}

bool FederationProcessor::DeadlinePassed() const {
  if (options_.exec.deadline == std::chrono::steady_clock::time_point{}) {
    return false;
  }
  Clock* clock =
      options_.exec.clock != nullptr ? options_.exec.clock : Clock::Real();
  return clock->Now() >= options_.exec.deadline;
}

Result<RowSet> FederationProcessor::FetchFrom(
    CatalogEntry* entry, const Prepared& prepared, int relation,
    PlanPtr leaf_plan, const std::vector<Value>* bind_values,
    int bound_attr) {
  const Prepared::Rel& rel = prepared.rels[relation];
  ExecOptions exec_options = options_.exec;
  exec_options.breaker = entry->breaker();
  exec_options.latency = entry->latency_tracker();
  Executor exec(entry->source(), options_.pool, exec_options);
  // Each Execute starts with no completeness markers, so every pass's are
  // collected as it ends — a truncated bind batch that is not the last
  // must still mark the answer.
  std::vector<TruncationRecord> truncations;
  std::vector<std::string> dropped;
  const auto execute = [&](const PlanNode& plan) {
    Result<RowSet> pass = exec.Execute(plan);
    for (TruncationRecord& record : exec.truncation_records()) {
      truncations.push_back(std::move(record));
    }
    for (std::string& branch : exec.dropped_sub_queries()) {
      dropped.push_back(std::move(branch));
    }
    return pass;
  };
  Result<RowSet> rows = [&]() -> Result<RowSet> {
    if (bind_values == nullptr) {
      if (leaf_plan == nullptr) {
        GC_ASSIGN_OR_RETURN(leaf_plan,
                            PlanLeaf(entry, rel.pushdown, rel.needs));
      }
      return execute(*leaf_plan);
    }
    // Bind: one value-list query per batch of distinct driving values.
    const std::string& key_attr = entry->schema().attribute(bound_attr).name;
    RowSet acc(RowLayout(rel.needs, entry->schema().num_attributes()));
    const size_t batch_size = std::max<size_t>(options_.bind_batch_size, 1);
    for (size_t start = 0; start < bind_values->size(); start += batch_size) {
      const size_t end = std::min(bind_values->size(), start + batch_size);
      const std::vector<Value> batch(bind_values->begin() + start,
                                     bind_values->begin() + end);
      GC_ASSIGN_OR_RETURN(
          PlanPtr batch_plan,
          PlanLeaf(entry, BindBatchCondition(rel.pushdown, key_attr, batch),
                   rel.needs));
      GC_ASSIGN_OR_RETURN(RowSet batch_rows, execute(*batch_plan));
      if (options_.exec.batch_width > 0) {
        acc.MergeFrom(std::move(batch_rows));
      } else {
        acc = RowSet::UnionOf(acc, batch_rows);
      }
      ++stats_.bind_batches;
    }
    return acc;
  }();
  // Every attempt's work is real cost; only the attempt that answered can
  // mark the answer partial.
  stats_.exec += exec.stats();
  stats_.true_cost += exec.stats().TrueCost(
      entry->handle()->description().k1(), entry->handle()->description().k2());
  if (rows.ok()) {
    for (TruncationRecord& record : truncations) {
      stats_.truncations.push_back(std::move(record));
    }
    for (std::string& branch : dropped) {
      stats_.dropped_sub_queries.push_back(std::move(branch));
    }
  }
  return rows;
}

Result<RowSet> FederationProcessor::FetchRelation(
    const Prepared& prepared, int relation, const PlanPtr& leaf_plan,
    const std::vector<Value>* bind_values, int bound_attr,
    int* failed_relation) {
  Result<RowSet> rows = FetchFrom(entries_[relation], prepared, relation,
                                  leaf_plan, bind_values, bound_attr);
  // Cross-source failover: on a retryable failure, each alternate in turn,
  // re-planned against its own description (its capabilities may differ).
  // Open-circuit alternates would only burn the attempt, and after the
  // deadline every attempt fails unsent. Non-retryable failures (infeasible
  // plan, bad query) propagate: no replica can fix those, and the primary's
  // error is what a failed failover reports.
  if (!rows.ok() && IsRetryable(rows.status().code()) &&
      static_cast<size_t>(relation) < options_.alternates.size()) {
    for (CatalogEntry* alternate : options_.alternates[relation]) {
      if (DeadlinePassed()) break;
      if (alternate == entries_[relation] ||
          (alternate->breaker() != nullptr &&
           alternate->breaker()->EffectiveState() ==
               CircuitBreaker::State::kOpen)) {
        continue;
      }
      ++stats_.failovers;
      Result<RowSet> attempt = FetchFrom(alternate, prepared, relation,
                                         /*leaf_plan=*/nullptr, bind_values,
                                         bound_attr);
      if (attempt.ok()) {
        rows = std::move(attempt);
        break;
      }
    }
  }
  if (!rows.ok() && IsRetryable(rows.status().code()) &&
      *failed_relation < 0) {
    *failed_relation = relation;
  }
  return rows;
}

FederationProcessor::Intermediate FederationProcessor::HashJoin(
    const Prepared& prepared, const Intermediate& left,
    const Intermediate& right) const {
  Intermediate out;
  out.set = left.set | right.set;
  for (size_t i = 0; i < entries_.size(); ++i) {
    if ((out.set >> i) & 1u) {
      out.rels.push_back(static_cast<int>(i));
      out.rel_offset.push_back(out.width);
      out.width += prepared.rels[i].need_list.size();
    }
  }

  // Key slot pairs: every attr pair of every edge crossing the two sides.
  std::vector<std::pair<size_t, size_t>> key_slots;  // (left slot, right slot)
  for (const Prepared::Edge& edge : prepared.edges) {
    const bool a_left = (left.set >> edge.a) & 1u;
    const bool a_right = (right.set >> edge.a) & 1u;
    const bool b_left = (left.set >> edge.b) & 1u;
    const bool b_right = (right.set >> edge.b) & 1u;
    for (const auto& [a_attr, b_attr] : edge.keys) {
      if (a_left && b_right) {
        key_slots.emplace_back(left.SlotOf(prepared, edge.a, a_attr),
                               right.SlotOf(prepared, edge.b, b_attr));
      } else if (b_left && a_right) {
        key_slots.emplace_back(left.SlotOf(prepared, edge.b, b_attr),
                               right.SlotOf(prepared, edge.a, a_attr));
      }
    }
  }

  // Output rows interleave the two sides' segments in ascending relation
  // order. When the sides don't interleave (all left relations precede all
  // right ones), the output is a plain concatenation and — on the batch
  // data plane — the joined hash continues the left row's cached fold.
  const bool plain_concat =
      left.rels.back() < right.rels.front();
  const bool trusted_hash = plain_concat && options_.exec.batch_width > 0;

  const auto combine = [&](const Row& l, const Row& r) {
    std::vector<Value> values;
    values.reserve(out.width);
    if (plain_concat) {
      values = l.values();
      values.insert(values.end(), r.values().begin(), r.values().end());
      if (trusted_hash) {
        return Row(std::move(values), Row::ExtendHash(l.Hash(), r.values()));
      }
      return Row(std::move(values));
    }
    size_t li = 0, ri = 0;
    for (int rel : out.rels) {
      const bool from_left = (left.set >> rel) & 1u;
      const Intermediate& side = from_left ? left : right;
      size_t& cursor = from_left ? li : ri;
      const Row& row = from_left ? l : r;
      const size_t count = prepared.rels[rel].need_list.size();
      const size_t offset = side.rel_offset[cursor];
      for (size_t k = 0; k < count; ++k) {
        values.push_back(row.value(offset + k));
      }
      ++cursor;
    }
    return Row(std::move(values));
  };

  const auto fold_key = [&](const Row& row, bool is_left) {
    size_t h = Row::kEmptyHash;
    for (const auto& [ls, rs] : key_slots) {
      const Value& v = row.value(is_left ? ls : rs);
      h = Row::ExtendHash(h, &v, 1);
    }
    return h;
  };
  const auto keys_match = [&](const Row& l, const Row& r) {
    for (const auto& [ls, rs] : key_slots) {
      if (!(l.value(ls) == r.value(rs))) return false;
    }
    return true;
  };

  std::unordered_map<size_t, std::vector<const Row*>> index;
  for (const Row& row : right.rows.rows()) {
    index[fold_key(row, /*is_left=*/false)].push_back(&row);
  }

  out.rows = RowSet(RowLayout(AttributeSet::AllOf(out.width), out.width));
  for (const Row& left_row : left.rows.rows()) {
    const auto it = index.find(fold_key(left_row, /*is_left=*/true));
    if (it == index.end()) continue;
    for (const Row* right_row : it->second) {
      if (!keys_match(left_row, *right_row)) continue;
      out.rows.Insert(combine(left_row, *right_row));
    }
  }
  return out;
}

Result<FederationProcessor::Intermediate> FederationProcessor::ExecuteNode(
    const Prepared& prepared, const FederationPlanOutcome& outcome,
    uint64_t set, int* failed_relation) {
  const SubsetPlan& node = outcome.enumeration.table.at(set);

  if (node.left == 0) {  // leaf: one relation, fetched independently
    int r = 0;
    while (((set >> r) & 1u) == 0) ++r;
    const PlanPtr& plan = outcome.leaf_plans[r];
    if (plan == nullptr) {
      return Status::Internal("join tree chose an unplanned leaf fetch");
    }
    GC_ASSIGN_OR_RETURN(RowSet rows,
                        FetchRelation(prepared, r, plan, /*bind_values=*/nullptr,
                                      /*bound_attr=*/-1, failed_relation));
    return Intermediate::Of(prepared, r, std::move(rows));
  }

  GC_ASSIGN_OR_RETURN(
      const Intermediate left,
      ExecuteNode(prepared, outcome, node.left, failed_relation));

  if (node.method == EdgeMethod::kIndependent) {
    GC_ASSIGN_OR_RETURN(
        const Intermediate right,
        ExecuteNode(prepared, outcome, node.right, failed_relation));
    return HashJoin(prepared, left, right);
  }

  // Bind join: fetch the bound relation as batched value-list queries
  // driven by the finished left subtree's distinct key values.
  const int r = node.bind_relation;
  const Prepared::Edge& edge = prepared.edges[node.bind_edge];
  int drive_rel, drive_attr, bound_attr;
  if (edge.b == r) {
    drive_rel = edge.a;
    drive_attr = edge.keys[0].first;
    bound_attr = edge.keys[0].second;
  } else {
    drive_rel = edge.b;
    drive_attr = edge.keys[0].second;
    bound_attr = edge.keys[0].first;
  }
  const int drive_slot = left.SlotOf(prepared, drive_rel, drive_attr);

  std::vector<Value> distinct;
  {
    std::unordered_set<Value, ValueHash> seen;
    for (const Row& row : left.rows.rows()) {
      const Value& v = row.value(static_cast<size_t>(drive_slot));
      if (v.is_null()) continue;
      if (seen.insert(v).second) distinct.push_back(v);
    }
  }

  GC_ASSIGN_OR_RETURN(RowSet bound,
                      FetchRelation(prepared, r, /*leaf_plan=*/nullptr,
                                    &distinct, bound_attr, failed_relation));
  return HashJoin(prepared, left,
                  Intermediate::Of(prepared, r, std::move(bound)));
}

Result<RowSet> FederationProcessor::Execute(const FederatedQuery& query) {
  stats_ = FederationExecStats();
  GC_ASSIGN_OR_RETURN(const Prepared prepared, PrepareQuery(query));
  const size_t n = entries_.size();
  const uint64_t full = (uint64_t{1} << n) - 1;

  std::vector<bool> avoid(n, false);
  Status last_error = Status::OK();
  for (size_t round = 0;; ++round) {
    Result<FederationPlanOutcome> outcome = PlanPrepared(prepared, avoid);
    if (!outcome.ok()) {
      // A later round that cannot re-plan reports the execution failure
      // that triggered it, not the planner's.
      return round == 0 ? outcome.status() : last_error;
    }
    stats_.plans_enumerated += outcome->enumeration.stats.plans_considered;
    stats_.dp_subsets += outcome->enumeration.stats.subsets_expanded;
    stats_.used_greedy |= outcome->enumeration.stats.used_greedy;

    // Markers describe the answer, so only the answering round's count.
    stats_.truncations.clear();
    stats_.dropped_sub_queries.clear();
    int failed_relation = -1;
    Result<Intermediate> root =
        ExecuteNode(prepared, *outcome, full, &failed_relation);
    if (!root.ok()) {
      last_error = root.status();
      if (round < options_.max_replans && failed_relation >= 0 &&
          !avoid[failed_relation] && IsRetryable(last_error.code()) &&
          !DeadlinePassed()) {
        avoid[failed_relation] = true;
        ++stats_.replans;
        continue;
      }
      return last_error;
    }

    // Count the chosen tree's edge methods (of the round that answered).
    stats_.bind_edges = 0;
    stats_.independent_edges = 0;
    const std::function<void(uint64_t)> count = [&](uint64_t set) {
      const SubsetPlan& node = outcome->enumeration.table.at(set);
      if (node.left == 0) return;
      if (node.method == EdgeMethod::kBind) {
        ++stats_.bind_edges;
      } else {
        ++stats_.independent_edges;
      }
      count(node.left);
      count(node.right);
    };
    count(full);

    // Root postprocessing: residual over the joined schema, then the
    // SELECT projection.
    const Schema& joined_schema = prepared.joined_schema;
    const RowLayout joined_layout(joined_schema.AllAttributes(),
                                  joined_schema.num_attributes());
    AttributeSet select_attrs;
    if (query.select.empty()) {
      select_attrs = joined_schema.AllAttributes();
    } else {
      GC_ASSIGN_OR_RETURN(select_attrs, joined_schema.MakeSet(query.select));
    }
    const RowLayout out_layout(select_attrs, joined_schema.num_attributes());
    RowSet output(out_layout);
    for (const Row& row : root->rows.rows()) {
      if (!outcome->residual->is_true()) {
        GC_ASSIGN_OR_RETURN(const bool keep,
                            EvalCondition(*outcome->residual, row,
                                          joined_layout, joined_schema));
        if (!keep) continue;
      }
      ++stats_.joined_rows;
      output.Insert(joined_layout.Project(row, out_layout));
    }
    stats_.plan = std::move(outcome).value();
    return output;
  }
}

}  // namespace gencompact
