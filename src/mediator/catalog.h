#ifndef GENCOMPACT_MEDIATOR_CATALOG_H_
#define GENCOMPACT_MEDIATOR_CATALOG_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "cost/cost_model.h"
#include "exec/circuit_breaker.h"
#include "exec/latency_tracker.h"
#include "exec/source.h"
#include "planner/source_handle.h"

namespace gencompact {

/// A registered source: its planning handle (closed description, stats,
/// cost model, checker) and its executable capability-enforcing wrapper.
class CatalogEntry {
 public:
  CatalogEntry(SourceDescription description, std::unique_ptr<Table> table,
               uint32_t source_id, bool apply_commutativity_closure = true);

  const std::string& name() const {
    return handle_->description().source_name();
  }
  const Schema& schema() const { return handle_->schema(); }
  SourceHandle* handle() { return handle_.get(); }
  Source* source() { return source_.get(); }
  const Source* source() const { return source_.get(); }
  const Table& table() const { return *table_; }

  /// Dense registration-order id, the source component of PlanCacheKey
  /// (names stay out of the cache's hot path).
  uint32_t source_id() const { return source_id_; }

  /// Monotonic description epoch: 0 at registration, bumped by every
  /// ReloadDescription (reported in the mediator's stats snapshot).
  uint64_t description_epoch() const { return description_epoch_; }

  /// Replaces this source's SSDL description in place (the entry pointer,
  /// name, source id, table with its column mirror, breaker, and latency
  /// digest all survive):
  /// rebuilds the planning handle and enforcement wrapper against the new
  /// description — their Checkers, and so their Check memos, start empty —
  /// bumps the description epoch, and re-wires the breaker's cost penalty.
  /// The new description must carry the same source name and the table's
  /// schema. Like registration, not thread-safe against in-flight queries —
  /// quiesce first. (The wrapper's execution counters and fault policy
  /// reset with the wrapper.)
  Status ReloadDescription(SourceDescription description);

  /// Attaches the per-source circuit breaker, shared by every execution
  /// against this source, and wires the health penalty it drives into the
  /// source's cost model (see RefreshCostPenalty). Call during
  /// registration, before concurrent queries start (like the rest of source
  /// configuration).
  void EnableCircuitBreaker(const CircuitBreakerOptions& options,
                            Clock* clock) {
    breaker_ = std::make_unique<CircuitBreaker>(options, clock);
    handle_->mutable_cost_model()->set_health_penalty(&penalty_);
  }

  /// The shared breaker, or null when fault tolerance is not configured.
  CircuitBreaker* breaker() { return breaker_.get(); }
  const CircuitBreaker* breaker() const { return breaker_.get(); }

  /// The per-source latency digest, owned from registration, fed by every
  /// execution against this source (successful call durations) and read by
  /// hedging, the backlog gate, and the stats snapshot.
  LatencyTracker* latency_tracker() { return &latency_; }
  const LatencyTracker* latency_tracker() const { return &latency_; }

  /// k1 multipliers of a source whose breaker is open (its calls are being
  /// rejected) and half-open (probing; capacity is one probe streak).
  static constexpr double kOpenPenalty = 8.0;
  static constexpr double kHalfOpenPenalty = 3.0;

  /// The k1 multiplier the breaker's effective state calls for right now:
  /// kOpenPenalty, kHalfOpenPenalty, or 1 when closed or without a breaker.
  double HealthMultiplier() const;

  /// Sets the cost model's k1 multiplier to HealthMultiplier() and returns
  /// it. The mediator calls this once per query before planning — costs
  /// seen by the planner reflect health at planning time, and a multiplier
  /// > 1 tells the mediator to keep the resulting plan out of the cache.
  double RefreshCostPenalty();

 private:
  std::unique_ptr<Table> table_;
  std::unique_ptr<SourceHandle> handle_;
  std::unique_ptr<Source> source_;
  std::unique_ptr<CircuitBreaker> breaker_;
  LatencyTracker latency_;
  HealthPenalty penalty_;
  uint32_t source_id_;
  uint64_t description_epoch_ = 0;
  bool apply_commutativity_closure_;
};

/// Name → source registry for the mediator. Lookups from concurrent client
/// threads take a shared lock; registration takes an exclusive lock. Entry
/// pointers remain stable once registered (entries are never removed).
class Catalog {
 public:
  Catalog() = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// Registers a source; InvalidArgument if the name is taken.
  Status Register(SourceDescription description, std::unique_ptr<Table> table,
                  bool apply_commutativity_closure = true);

  /// Looks up a source by name; NotFound if absent.
  Result<CatalogEntry*> Find(const std::string& name);

  /// Reloads the description of the registered source it names (see
  /// CatalogEntry::ReloadDescription); NotFound if absent. Takes the
  /// exclusive lock, like registration — quiesce queries first.
  Result<CatalogEntry*> Reload(SourceDescription description);

  size_t size() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return entries_.size();
  }

  /// Visits every registered source in name order under a shared lock
  /// (used by the mediator-wide stats snapshot).
  void ForEach(const std::function<void(CatalogEntry*)>& fn) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    for (const auto& [name, entry] : entries_) fn(entry.get());
  }

  /// Sources other than `entry` exporting an identical schema (attribute
  /// names and types, in order) — replica candidates for cross-source
  /// failover. Name order; entry pointers are stable.
  std::vector<CatalogEntry*> SchemaCompatibleAlternates(
      const CatalogEntry& entry) const;

 private:
  mutable std::shared_mutex mu_;
  std::map<std::string, std::unique_ptr<CatalogEntry>> entries_;
  uint32_t next_source_id_ = 0;
};

}  // namespace gencompact

#endif  // GENCOMPACT_MEDIATOR_CATALOG_H_
