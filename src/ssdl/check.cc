#include "ssdl/check.h"

#include <algorithm>

#include "expr/condition_tokens.h"

namespace gencompact {

namespace {

/// Keeps only the maximal sets under inclusion, deduplicated.
std::vector<AttributeSet> MaximalSets(std::vector<AttributeSet> sets) {
  std::vector<AttributeSet> out;
  for (const AttributeSet& candidate : sets) {
    bool dominated = false;
    for (const AttributeSet& other : sets) {
      if (other != candidate && candidate.IsSubsetOf(other)) {
        dominated = true;
        break;
      }
    }
    if (dominated) continue;
    bool duplicate = false;
    for (const AttributeSet& kept : out) {
      if (kept == candidate) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) out.push_back(candidate);
  }
  return out;
}

}  // namespace

Checker::Checker(const SourceDescription* description)
    : description_(description), recognizer_(&description->grammar()) {
  for (const GrammarRule& rule : description->grammar().rules()) {
    for (const GrammarSymbol& symbol : rule.rhs) {
      if (!symbol.is_terminal ||
          symbol.terminal.kind != TerminalPattern::Kind::kConstLiteral) {
        continue;
      }
      const Value& literal = symbol.terminal.literal;
      const bool known = std::any_of(
          literals_.begin(), literals_.end(), [&literal](const Value& v) {
            return v.type() == literal.type() && v == literal;
          });
      if (!known) literals_.push_back(literal);
    }
  }
}

bool Checker::Pinned(const Value& constant) const {
  return std::any_of(
      literals_.begin(), literals_.end(),
      [&constant](const Value& literal) { return constant == literal; });
}

bool Checker::SameShape(const ConditionNode& a, const ConditionNode& b) const {
  if (&a == &b) return true;
  if (a.kind() != b.kind() || a.shape_hash() != b.shape_hash()) return false;
  if (a.is_atom()) {
    const AtomicCondition& x = a.atom();
    const AtomicCondition& y = b.atom();
    // Constants of one type that compare equal match the same literals; if
    // neither matches any literal, only the type-driven placeholders can
    // match them.
    return x.attribute == y.attribute && x.op == y.op &&
           x.constant.type() == y.constant.type() &&
           (x.constant == y.constant ||
            (!Pinned(x.constant) && !Pinned(y.constant)));
  }
  if (a.children().size() != b.children().size()) return false;
  for (size_t i = 0; i < a.children().size(); ++i) {
    if (!SameShape(*a.children()[i], *b.children()[i])) return false;
  }
  return true;
}

const std::vector<AttributeSet>* Checker::Find(
    const ConditionNode& cond) const {
  const auto [first, last] = memo_.equal_range(cond.shape_hash());
  for (auto it = first; it != last; ++it) {
    if (SameShape(cond, *it->second.shape)) return &it->second.family;
  }
  return nullptr;
}

std::vector<AttributeSet> Checker::ComputeFamilyLocked(
    const std::vector<CondToken>& tokens) {
  const std::vector<int> deriving =
      recognizer_.DerivingNonterminals(description_->start_symbol(), tokens);
  total_earley_items_.fetch_add(recognizer_.last_item_count(),
                                std::memory_order_relaxed);
  std::vector<AttributeSet> exports;
  for (int id : deriving) {
    for (const auto& [nt, attrs] : description_->condition_nonterminals()) {
      if (nt == id) {
        exports.push_back(attrs);
        break;
      }
    }
  }
  return MaximalSets(std::move(exports));
}

const std::vector<AttributeSet>& Checker::Check(const ConditionNode& cond) {
  num_checks_.fetch_add(1, std::memory_order_relaxed);
  {
    std::shared_lock<std::shared_mutex> read_lock(memo_mu_);
    if (const std::vector<AttributeSet>* family = Find(cond)) {
      num_cache_hits_.fetch_add(1, std::memory_order_relaxed);
      return *family;
    }
  }
  // Miss: tokenize outside any lock, then serialize the stateful Earley
  // recognizer. Inserts happen only under the Earley lock, so looking again
  // under it makes concurrent misses on one shape parse once.
  const std::vector<CondToken> tokens = TokenizeCondition(cond);
  const std::lock_guard<std::mutex> earley_lock(earley_mu_);
  {
    std::shared_lock<std::shared_mutex> read_lock(memo_mu_);
    if (const std::vector<AttributeSet>* family = Find(cond)) {
      num_cache_hits_.fetch_add(1, std::memory_order_relaxed);
      return *family;
    }
  }
  std::vector<AttributeSet> family = ComputeFamilyLocked(tokens);
  const std::lock_guard<std::shared_mutex> write_lock(memo_mu_);
  return memo_
      .emplace(cond.shape_hash(),
               Entry{cond.shared_from_this(), std::move(family)})
      ->second.family;
}

const std::vector<AttributeSet>& Checker::CheckTrue() {
  // Function-local static reference (never destroyed) per the style guide's
  // static-storage-duration rules.
  static const ConditionPtr& kTrue = *new ConditionPtr(ConditionNode::True());
  return Check(*kTrue);
}

bool Checker::Supports(const ConditionNode& cond, const AttributeSet& attrs) {
  for (const AttributeSet& exported : Check(cond)) {
    if (attrs.IsSubsetOf(exported)) return true;
  }
  return false;
}

}  // namespace gencompact
