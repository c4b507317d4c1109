#include "mediator/catalog.h"

namespace gencompact {

CatalogEntry::CatalogEntry(SourceDescription description,
                           std::unique_ptr<Table> table, uint32_t source_id,
                           bool apply_commutativity_closure)
    : table_(std::move(table)),
      handle_(std::make_unique<SourceHandle>(std::move(description),
                                             table_.get(),
                                             apply_commutativity_closure)),
      source_(std::make_unique<Source>(table_.get(), &handle_->description())),
      source_id_(source_id),
      apply_commutativity_closure_(apply_commutativity_closure) {}

Status CatalogEntry::ReloadDescription(SourceDescription description) {
  if (description.source_name() != name()) {
    return Status::InvalidArgument(
        "reload of '" + name() + "' given a description for '" +
        description.source_name() + "'");
  }
  const Schema& incoming = description.schema();
  const Schema& existing = table_->schema();
  if (incoming.num_attributes() != existing.num_attributes()) {
    return Status::InvalidArgument(
        "reloaded description schema does not match the table of '" + name() +
        "'");
  }
  for (size_t i = 0; i < incoming.num_attributes(); ++i) {
    const AttributeDef& a = incoming.attribute(static_cast<int>(i));
    const AttributeDef& b = existing.attribute(static_cast<int>(i));
    if (a.name != b.name || a.type != b.type) {
      return Status::InvalidArgument(
          "reloaded description schema does not match the table of '" +
          name() + "'");
    }
  }
  ++description_epoch_;
  handle_ = std::make_unique<SourceHandle>(std::move(description), table_.get(),
                                           apply_commutativity_closure_);
  source_ = std::make_unique<Source>(table_.get(), &handle_->description());
  if (breaker_ != nullptr) {
    handle_->mutable_cost_model()->set_health_penalty(&penalty_);
  }
  return Status::OK();
}

double CatalogEntry::HealthMultiplier() const {
  if (breaker_ == nullptr) return 1.0;
  switch (breaker_->EffectiveState()) {
    case CircuitBreaker::State::kOpen:
      return kOpenPenalty;
    case CircuitBreaker::State::kHalfOpen:
      return kHalfOpenPenalty;
    case CircuitBreaker::State::kClosed:
      break;
  }
  return 1.0;
}

double CatalogEntry::RefreshCostPenalty() {
  if (breaker_ == nullptr) return 1.0;
  const double multiplier = HealthMultiplier();
  penalty_.set_multiplier(multiplier);
  return multiplier;
}

Status Catalog::Register(SourceDescription description,
                         std::unique_ptr<Table> table,
                         bool apply_commutativity_closure) {
  const std::string name = description.source_name();
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (entries_.count(name) > 0) {
    return Status::InvalidArgument("source '" + name + "' already registered");
  }
  entries_.emplace(name, std::make_unique<CatalogEntry>(
                             std::move(description), std::move(table),
                             next_source_id_++, apply_commutativity_closure));
  return Status::OK();
}

Result<CatalogEntry*> Catalog::Reload(SourceDescription description) {
  const std::string name = description.source_name();
  std::unique_lock<std::shared_mutex> lock(mu_);
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::NotFound("unknown source: " + name);
  }
  GC_RETURN_IF_ERROR(it->second->ReloadDescription(std::move(description)));
  return it->second.get();
}

namespace {

bool SchemasEqual(const Schema& a, const Schema& b) {
  if (a.num_attributes() != b.num_attributes()) return false;
  for (size_t i = 0; i < a.num_attributes(); ++i) {
    const AttributeDef& da = a.attribute(static_cast<int>(i));
    const AttributeDef& db = b.attribute(static_cast<int>(i));
    if (da.name != db.name || da.type != db.type) return false;
  }
  return true;
}

}  // namespace

std::vector<CatalogEntry*> Catalog::SchemaCompatibleAlternates(
    const CatalogEntry& entry) const {
  std::vector<CatalogEntry*> alternates;
  std::shared_lock<std::shared_mutex> lock(mu_);
  for (const auto& [name, candidate] : entries_) {
    if (candidate.get() == &entry) continue;
    if (SchemasEqual(candidate->schema(), entry.schema())) {
      alternates.push_back(candidate.get());
    }
  }
  return alternates;
}

Result<CatalogEntry*> Catalog::Find(const std::string& name) {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::NotFound("unknown source: " + name);
  }
  return it->second.get();
}

}  // namespace gencompact
