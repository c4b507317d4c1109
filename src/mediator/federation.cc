#include "mediator/federation.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <functional>
#include <limits>
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

/// The outcome of work a failed fetch earlier in walk order kept from
/// starting. Never the answer: that earlier failure wins over it.
Status NotStarted() {
  return Status::Internal("not started: an earlier fetch failed");
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
                                         FederationOptions options,
                                         EventLoop* loop)
    : entries_(std::move(entries)), options_(std::move(options)), loop_(loop) {}

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

// ---------------------------------------------------------------------------
// Execution: the chosen tree as continuations on one event loop. Everything
// below runs on the loop's thread (a private loop's is the caller's), so the
// walk's state needs no locks.
//
// Walk order is the order a one-fetch-at-a-time walk would fetch in: the
// left subtree, then the right subtree or the bound relation. Failures are
// ranked by it, so the error reported, and the relation a replan avoids, do
// not depend on timing. Every relation is fetched once per round, so a node
// over the relation set S owns the positions [p, p + |S|): its left input
// starts at p, its right input at p + |left|.

/// One federated query in flight: the owned query, its prepared graph, and
/// the replan round.
struct FederationProcessor::Execution {
  FederatedQuery query;
  Prepared prepared;  // prepared.query points at `query`
  EventLoop* loop = nullptr;
  std::vector<bool> avoid;
  bool replanned = false;
  Status last_error;
  std::function<void(Result<RowSet>)> done;
};

/// One round: the tree it walks, and the failure latch.
struct FederationProcessor::Round {
  std::shared_ptr<Execution> execution;
  FederationPlanOutcome outcome;
  /// Lowest walk position whose fetch has failed. Nothing at a later
  /// position starts once it is set: a one-at-a-time walk would have
  /// stopped before getting there.
  size_t failed_at = std::numeric_limits<size_t>::max();
};

/// What one node's subtree produced once every fetch in it landed: its rows
/// or the error earliest in walk order, plus its work and markers, folded in
/// walk order so no field depends on the order fetches landed in.
struct FederationProcessor::Landed {
  Result<Intermediate> rows = Status::Internal("node has not landed");
  /// The relation whose fetch failed retryably (the avoid-set replan's
  /// target), or -1.
  int failed_relation = -1;
  /// Every attempt's work, failed ones included: true cost is real work.
  ExecStats exec;
  double true_cost = 0.0;
  /// Completeness markers of the attempts that answered.
  std::vector<TruncationRecord> truncations;
  std::vector<std::string> dropped_sub_queries;
};

/// The value lists of a bind fetch: the bound relation's key attribute and
/// the driving side's distinct values, in first-seen order.
struct FederationProcessor::BindKey {
  int attr = -1;
  std::vector<Value> values;
};

FederationProcessor::Landed FederationProcessor::JoinSides(
    const Round& round, size_t position, Landed left, Landed right) const {
  Landed out;
  out.exec = left.exec;
  out.exec += right.exec;
  out.true_cost = left.true_cost + right.true_cost;
  // The left input's failure wins: it comes first in walk order.
  for (Landed* side : {&left, &right}) {
    if (!side->rows.ok()) {
      out.rows = side->rows.status();
      out.failed_relation = side->failed_relation;
      return out;
    }
  }
  if (round.failed_at < position) {
    out.rows = NotStarted();
    return out;
  }
  out.rows = HashJoin(round.execution->prepared, *left.rows, *right.rows);
  out.truncations = std::move(left.truncations);
  out.dropped_sub_queries = std::move(left.dropped_sub_queries);
  for (TruncationRecord& record : right.truncations) {
    out.truncations.push_back(std::move(record));
  }
  for (std::string& branch : right.dropped_sub_queries) {
    out.dropped_sub_queries.push_back(std::move(branch));
  }
  return out;
}

/// One attempt at a relation against one source: its leaf plan, or one
/// value-list plan per bind batch, each run as its own execution (own dedup
/// scope, retry budget and markers) of the attempt's one Executor, all in
/// flight together.
struct FederationProcessor::Attempt {
  CatalogEntry* entry = nullptr;
  int relation = 0;
  bool bind = false;
  std::unique_ptr<Executor> executor;
  /// Per batch (one for a leaf fetch), in batch order; a batch the planner
  /// could not place ends the list with its planning error.
  std::vector<Result<RowSet>> results;
  std::vector<std::vector<TruncationRecord>> truncations;
  std::vector<std::vector<std::string>> dropped;
  size_t pending = 0;
  LandedCb done;
};

void FederationProcessor::FetchFrom(const RoundPtr& round, CatalogEntry* entry,
                                    int relation, PlanPtr leaf_plan,
                                    const std::shared_ptr<const BindKey>& bind,
                                    LandedCb cb) {
  const Prepared::Rel& rel = round->execution->prepared.rels[relation];
  // Plan first: the leaf, or every batch (PlanLeaf per batch). Planning
  // stops at a batch it cannot place; the batches before it still run, so
  // a failure among them is reported ahead of the planning error.
  std::vector<PlanPtr> plans;
  Status unplanned;
  if (bind == nullptr) {
    if (leaf_plan == nullptr) {
      Result<PlanPtr> planned = PlanLeaf(entry, rel.pushdown, rel.needs);
      if (planned.ok()) {
        leaf_plan = std::move(planned).value();
      } else {
        unplanned = planned.status();
      }
    }
    if (leaf_plan != nullptr) plans.push_back(std::move(leaf_plan));
  } else {
    const std::string& key_attr = entry->schema().attribute(bind->attr).name;
    const size_t batch_size = std::max<size_t>(options_.bind_batch_size, 1);
    for (size_t start = 0; start < bind->values.size(); start += batch_size) {
      const size_t end = std::min(bind->values.size(), start + batch_size);
      Result<PlanPtr> planned = PlanLeaf(
          entry,
          BindBatchCondition(rel.pushdown, key_attr,
                             std::vector<Value>(bind->values.begin() + start,
                                                bind->values.begin() + end)),
          rel.needs);
      if (!planned.ok()) {
        unplanned = planned.status();
        break;
      }
      plans.push_back(std::move(planned).value());
    }
  }

  ExecOptions exec_options = options_.exec;
  exec_options.breaker = entry->breaker();
  exec_options.latency = entry->latency_tracker();
  auto attempt = std::make_shared<Attempt>();
  attempt->entry = entry;
  attempt->relation = relation;
  attempt->bind = bind != nullptr;
  attempt->executor = std::make_unique<Executor>(
      entry->source(), options_.pool, exec_options, round->execution->loop);
  attempt->results.assign(plans.size(), Status::Internal("batch not landed"));
  if (!unplanned.ok()) attempt->results.push_back(unplanned);
  attempt->truncations.resize(plans.size());
  attempt->dropped.resize(plans.size());
  attempt->pending = plans.size();
  attempt->done = std::move(cb);

  // Folds the attempt once its last execution has landed.
  const auto land = [this, round](Attempt& a) {
    Landed landed;
    landed.exec = a.executor->stats();
    const SourceDescription& description = a.entry->handle()->description();
    landed.true_cost = landed.exec.TrueCost(description.k1(), description.k2());
    for (const Result<RowSet>& result : a.results) {
      if (result.ok() && a.bind) ++stats_.bind_batches;
    }
    // The lowest-numbered failed batch is the one the sequence stopped at.
    for (const Result<RowSet>& result : a.results) {
      if (!result.ok()) {
        landed.rows = result.status();
        a.done(std::move(landed));
        return;
      }
    }
    const Prepared& prepared = round->execution->prepared;
    RowSet rows = a.bind ? RowSet(RowLayout(prepared.rels[a.relation].needs,
                                            a.entry->schema().num_attributes()))
                         : std::move(a.results.front()).value();
    // Merged in place, in batch order, never completion order: the same
    // rows in the same order under any interleaving.
    for (size_t i = 0; a.bind && i < a.results.size(); ++i) {
      rows.MergeFrom(std::move(a.results[i]).value());
    }
    for (size_t i = 0; i < a.truncations.size(); ++i) {
      for (TruncationRecord& record : a.truncations[i]) {
        landed.truncations.push_back(std::move(record));
      }
      for (std::string& branch : a.dropped[i]) {
        landed.dropped_sub_queries.push_back(std::move(branch));
      }
    }
    landed.rows = Intermediate::Of(prepared, a.relation, std::move(rows));
    a.done(std::move(landed));
  };
  if (plans.empty()) {
    land(*attempt);
    return;
  }
  for (size_t i = 0; i < plans.size(); ++i) {
    attempt->executor->ExecuteAsync(
        std::move(plans[i]), [attempt, i, land](Result<RowSet> rows) {
          attempt->results[i] = std::move(rows);
          // Each execution's markers are readable only inside its `done`.
          attempt->truncations[i] = attempt->executor->truncation_records();
          attempt->dropped[i] = attempt->executor->dropped_sub_queries();
          if (--attempt->pending == 0) land(*attempt);
        });
  }
}

void FederationProcessor::FetchRelation(const RoundPtr& round, size_t position,
                                        int relation, PlanPtr leaf_plan,
                                        std::shared_ptr<const BindKey> bind,
                                        LandedCb cb) {
  if (round->failed_at < position) {
    Landed skipped;
    skipped.rows = NotStarted();
    cb(std::move(skipped));
    return;
  }
  FetchFrom(round, entries_[relation], relation, std::move(leaf_plan), bind,
            [this, round, position, relation, bind,
             cb = std::move(cb)](Landed landed) mutable {
              Failover(round, position, relation, std::move(bind),
                       /*next=*/0, std::move(landed), std::move(cb));
            });
}

void FederationProcessor::Failover(const RoundPtr& round, size_t position,
                                   int relation,
                                   std::shared_ptr<const BindKey> bind,
                                   size_t next, Landed landed, LandedCb cb) {
  // Cross-source failover: on a retryable failure, each alternate in turn,
  // re-planned against its own description (its capabilities may differ),
  // starting only once every batch of the failed attempt has landed.
  // Open-circuit alternates would only burn the attempt, and after the
  // deadline every attempt fails unsent. Non-retryable failures (infeasible
  // plan, bad query) propagate: no replica can fix those, and the primary's
  // error is what a failed failover reports.
  if (!landed.rows.ok() && IsRetryable(landed.rows.status().code()) &&
      static_cast<size_t>(relation) < options_.alternates.size()) {
    const std::vector<CatalogEntry*>& alternates =
        options_.alternates[relation];
    for (; next < alternates.size(); ++next) {
      if (DeadlinePassed(options_.exec.clock, options_.exec.deadline) ||
          round->failed_at < position) {
        break;
      }
      CatalogEntry* alternate = alternates[next];
      if (alternate == entries_[relation] ||
          (alternate->breaker() != nullptr &&
           alternate->breaker()->EffectiveState() ==
               CircuitBreaker::State::kOpen)) {
        continue;
      }
      ++stats_.failovers;
      FetchFrom(round, alternate, relation, /*leaf_plan=*/nullptr, bind,
                [this, round, position, relation, bind, next,
                 landed = std::move(landed),
                 cb = std::move(cb)](Landed attempt) mutable {
                  // Every attempt's work counts; only one that answered
                  // replaces the primary's error and marks the answer.
                  attempt.exec += landed.exec;
                  attempt.true_cost += landed.true_cost;
                  if (!attempt.rows.ok()) attempt.rows = landed.rows.status();
                  Failover(round, position, relation, std::move(bind),
                           next + 1, std::move(attempt), std::move(cb));
                });
      return;
    }
  }
  if (!landed.rows.ok()) {
    round->failed_at = std::min(round->failed_at, position);
    if (IsRetryable(landed.rows.status().code())) {
      landed.failed_relation = relation;
    }
  }
  cb(std::move(landed));
}

void FederationProcessor::Walk(const RoundPtr& round, uint64_t set,
                               size_t position, LandedCb cb) {
  const SubsetPlan& node = round->outcome.enumeration.table.at(set);

  if (node.left == 0) {  // leaf: one relation, fetched independently
    const int r = std::countr_zero(set);
    const PlanPtr& plan = round->outcome.leaf_plans[r];
    if (plan == nullptr) {
      round->failed_at = std::min(round->failed_at, position);
      Landed landed;
      landed.rows = Status::Internal("join tree chose an unplanned leaf fetch");
      cb(std::move(landed));
      return;
    }
    FetchRelation(round, position, r, plan, /*bind=*/nullptr, std::move(cb));
    return;
  }
  const size_t right_position =
      position + static_cast<size_t>(std::popcount(node.left));

  if (node.method == EdgeMethod::kIndependent) {
    // Both sides start together; the hash join waits for the later one.
    struct Sides {
      std::optional<Landed> left;
      std::optional<Landed> right;
      LandedCb cb;
    };
    auto sides = std::make_shared<Sides>();
    sides->cb = std::move(cb);
    const auto arrive = [this, round, position, sides] {
      if (!sides->left.has_value() || !sides->right.has_value()) return;
      sides->cb(JoinSides(*round, position, std::move(*sides->left),
                          std::move(*sides->right)));
    };
    Walk(round, node.left, position, [sides, arrive](Landed left) {
      sides->left = std::move(left);
      arrive();
    });
    Walk(round, node.right, right_position, [sides, arrive](Landed right) {
      sides->right = std::move(right);
      arrive();
    });
    return;
  }

  // Bind join: once the left subtree lands, its distinct key values become
  // the bound relation's value-list batches.
  Walk(round, node.left, position,
       [this, round, position, right_position, r = node.bind_relation,
        edge_index = node.bind_edge, cb = std::move(cb)](Landed left) mutable {
         if (!left.rows.ok()) {
           cb(std::move(left));
           return;
         }
         const Prepared& prepared = round->execution->prepared;
         const Prepared::Edge& edge = prepared.edges[edge_index];
         const bool bound_is_b = edge.b == r;
         const int drive_rel = bound_is_b ? edge.a : edge.b;
         const int drive_attr =
             bound_is_b ? edge.keys[0].first : edge.keys[0].second;
         auto bind = std::make_shared<BindKey>();
         bind->attr = bound_is_b ? edge.keys[0].second : edge.keys[0].first;
         const size_t drive_slot = static_cast<size_t>(
             left.rows->SlotOf(prepared, drive_rel, drive_attr));
         std::unordered_set<Value, ValueHash> seen;
         for (const Row& row : left.rows->rows.rows()) {
           const Value& v = row.value(drive_slot);
           if (v.is_null()) continue;
           if (seen.insert(v).second) bind->values.push_back(v);
         }
         FetchRelation(round, right_position, r, /*leaf_plan=*/nullptr,
                       std::move(bind),
                       [this, round, position, left = std::move(left),
                        cb = std::move(cb)](Landed bound) mutable {
                         cb(JoinSides(*round, position, std::move(left),
                                      std::move(bound)));
                       });
       });
}

void FederationProcessor::Begin(FederatedQuery query, EventLoop* loop,
                                std::function<void(Result<RowSet>)> done) {
  stats_ = FederationExecStats();
  auto execution = std::make_shared<Execution>();
  execution->query = std::move(query);
  execution->loop = loop;
  execution->done = std::move(done);
  Result<Prepared> prepared = PrepareQuery(execution->query);
  if (!prepared.ok()) {
    execution->done(prepared.status());
    return;
  }
  execution->prepared = std::move(prepared).value();
  execution->avoid.assign(entries_.size(), false);
  StartRound(execution);
}

void FederationProcessor::StartRound(
    const std::shared_ptr<Execution>& execution) {
  Result<FederationPlanOutcome> outcome =
      PlanPrepared(execution->prepared, execution->avoid);
  if (!outcome.ok()) {
    // A replan round that cannot plan reports the execution failure that
    // triggered it, not the planner's.
    execution->done(execution->replanned ? execution->last_error
                                         : outcome.status());
    return;
  }
  stats_.plans_enumerated += outcome->enumeration.stats.plans_considered;
  stats_.dp_subsets += outcome->enumeration.stats.subsets_expanded;
  stats_.used_greedy |= outcome->enumeration.stats.used_greedy;

  auto round = std::make_shared<Round>();
  round->execution = execution;
  round->outcome = std::move(outcome).value();
  const uint64_t full = (uint64_t{1} << entries_.size()) - 1;
  Walk(round, full, /*position=*/0,
       [this, round](Landed root) { EndRound(round, std::move(root)); });
}

void FederationProcessor::EndRound(const RoundPtr& round, Landed root) {
  Execution& execution = *round->execution;
  stats_.exec += root.exec;
  stats_.true_cost += root.true_cost;
  if (!root.rows.ok()) {
    // The round has fully landed; the next one, if any, starts now.
    execution.last_error = root.rows.status();
    if (!execution.replanned && options_.exec.retry.enabled() &&
        root.failed_relation >= 0 && IsRetryable(execution.last_error.code()) &&
        RecoveryFits(options_.exec.clock, options_.exec.deadline,
                     execution.last_error.code())) {
      execution.avoid[root.failed_relation] = true;
      execution.replanned = true;
      ++stats_.replans;
      StartRound(round->execution);
      return;
    }
    execution.done(execution.last_error);
    return;
  }

  // Markers describe the answer, so only the answering round's count.
  stats_.truncations = std::move(root.truncations);
  stats_.dropped_sub_queries = std::move(root.dropped_sub_queries);
  const FederationPlanOutcome& outcome = round->outcome;
  // Count the chosen tree's edge methods (of the round that answered).
  const std::function<void(uint64_t)> count = [&](uint64_t set) {
    const SubsetPlan& node = outcome.enumeration.table.at(set);
    if (node.left == 0) return;
    if (node.method == EdgeMethod::kBind) {
      ++stats_.bind_edges;
    } else {
      ++stats_.independent_edges;
    }
    count(node.left);
    count(node.right);
  };
  count((uint64_t{1} << entries_.size()) - 1);

  // Root postprocessing: residual over the joined schema, then the SELECT
  // projection.
  Result<RowSet> output = [&]() -> Result<RowSet> {
    const Schema& joined_schema = execution.prepared.joined_schema;
    const RowLayout joined_layout(joined_schema.AllAttributes(),
                                  joined_schema.num_attributes());
    AttributeSet select_attrs;
    if (execution.query.select.empty()) {
      select_attrs = joined_schema.AllAttributes();
    } else {
      GC_ASSIGN_OR_RETURN(select_attrs,
                          joined_schema.MakeSet(execution.query.select));
    }
    const RowLayout out_layout(select_attrs, joined_schema.num_attributes());
    RowSet rows(out_layout);
    for (const Row& row : root.rows->rows.rows()) {
      if (!outcome.residual->is_true()) {
        GC_ASSIGN_OR_RETURN(const bool keep,
                            EvalCondition(*outcome.residual, row,
                                          joined_layout, joined_schema));
        if (!keep) continue;
      }
      ++stats_.joined_rows;
      rows.Insert(joined_layout.Project(row, out_layout));
    }
    return rows;
  }();
  if (output.ok()) stats_.plan = std::move(round->outcome);
  execution.done(std::move(output));
}

Result<RowSet> FederationProcessor::Execute(const FederatedQuery& query) {
  // A private loop on this thread: the walk starts inline, and the loop
  // serves what waits. It starts no thread (one started thread turns off
  // the single-thread fast paths of glibc's malloc and libstdc++'s
  // shared_ptr).
  std::optional<Result<RowSet>> answer;
  EventLoopOptions loop_options;
  loop_options.clock = options_.exec.clock;
  loop_options.manual = true;
  EventLoop loop(loop_options);
  Begin(query, &loop,
        [&answer](Result<RowSet> result) { answer = std::move(result); });
  // Every round trip the executors started, hedge losers and pool scans
  // included, must come back before the loop goes away.
  loop.RunUntil([&] { return answer.has_value() && loop.round_trips() == 0; });
  return std::move(*answer);
}

void FederationProcessor::ExecuteAsync(
    FederatedQuery query, std::function<void(Result<RowSet>)> done) {
  assert(loop_ != nullptr && "ExecuteAsync runs on a shared loop");
  loop_->Post([this, query = std::move(query), done = std::move(done)] {
    Begin(query, loop_, done);
  });
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
  // right ones), the output is a plain concatenation, and the joined hash
  // continues the left row's cached fold over the right row's values.
  const bool plain_concat = left.rels.back() < right.rels.front();

  const auto combine = [&](const Row& l, const Row& r) {
    std::vector<Value> values;
    values.reserve(out.width);
    if (plain_concat) {
      values = l.values();
      values.insert(values.end(), r.values().begin(), r.values().end());
      return Row(std::move(values), Row::ExtendHash(l.Hash(), r.values()));
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

}  // namespace gencompact
