// Seeded ground-truth oracle for the Checker's shape-keyed memo. Each case
// builds random descriptions — RandomCapability grammars, and random SSDL
// text whose rules pin literal constants — and checks random conditions
// through one long-lived Checker per description. The reference is a fresh
// Checker per condition, whose single Check is a memo-free Earley run, and
// every family must match it. The conditions aim at what the memo key keeps
// and what it erases: constants equal to a pinned literal, Int(2) against a
// 2.0 literal under both $int and $float, null and bool constants, and every
// shape again with constants no earlier condition used, in shuffled order.
// After the first of those same-shape conditions the memo must not grow.
//
// The base seed comes from GENCOMPACT_TEST_SEED (default 439) so CI runs
// this under the same seed matrix as the differential suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ssdl/check.h"
#include "ssdl/closure.h"
#include "ssdl/ssdl_parser.h"
#include "workload/random_capability.h"
#include "workload/random_condition.h"

namespace gencompact {
namespace {

uint64_t BaseSeed() {
  const char* env = std::getenv("GENCOMPACT_TEST_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 439;
}

std::vector<AttributeSet> Sorted(std::vector<AttributeSet> family) {
  std::sort(family.begin(), family.end());
  return family;
}

void ExpectMatchesOracle(Checker* memo, const SourceDescription& description,
                         const ConditionNode& cond) {
  Checker fresh(&description);
  EXPECT_EQ(Sorted(memo->Check(cond)), Sorted(fresh.Check(cond)))
      << cond.ToString();
}

// `cond` with every int, double and string constant replaced by one of the
// same type that no earlier call produced and that no grammar here pins.
// Bool and null constants have no fresh values and stay.
ConditionPtr WithFreshConstants(const ConditionPtr& cond, int64_t* counter) {
  if (cond->is_true()) return cond;
  if (cond->is_atom()) {
    AtomicCondition atom = cond->atom();
    const int64_t n = 1000000 + (*counter)++;
    switch (atom.constant.type()) {
      case ValueType::kInt:
        atom.constant = Value::Int(n);
        break;
      case ValueType::kDouble:
        atom.constant = Value::Double(static_cast<double>(n) + 0.5);
        break;
      case ValueType::kString:
        atom.constant = Value::String("fresh" + std::to_string(n));
        break;
      case ValueType::kNull:
      case ValueType::kBool:
        break;
    }
    return ConditionNode::Atom(std::move(atom));
  }
  std::vector<ConditionPtr> children;
  for (const ConditionPtr& child : cond->children()) {
    children.push_back(WithFreshConstants(child, counter));
  }
  return ConditionNode::Connector(cond->kind(), std::move(children));
}

// Checks every base condition, then kTwins fresh-constant copies of each in
// shuffled order: all copies of one base share a shape, so only the first
// of them may add a memo entry or run Earley.
void CheckWithFreshTwins(const SourceDescription& description,
                         const std::vector<ConditionPtr>& bases, Rng* rng) {
  constexpr size_t kTwins = 3;
  Checker memo(&description);
  for (const ConditionPtr& base : bases) {
    ExpectMatchesOracle(&memo, description, *base);
  }
  int64_t counter = 0;
  std::vector<std::pair<size_t, ConditionPtr>> twins;
  for (size_t i = 0; i < bases.size(); ++i) {
    for (size_t t = 0; t < kTwins; ++t) {
      twins.emplace_back(i, WithFreshConstants(bases[i], &counter));
    }
  }
  rng->Shuffle(&twins);
  std::vector<bool> seen(bases.size(), false);
  for (const auto& [base, twin] : twins) {
    const size_t entries = memo.memo_size();
    const size_t items = memo.total_earley_items();
    ExpectMatchesOracle(&memo, description, *twin);
    if (seen[base]) {
      EXPECT_EQ(memo.memo_size(), entries) << twin->ToString();
      EXPECT_EQ(memo.total_earley_items(), items) << twin->ToString();
    } else {
      EXPECT_LE(memo.memo_size(), entries + 1) << twin->ToString();
    }
    seen[base] = true;
  }
}

// ---------------------------------------------------------------------------
// Random SSDL text with pinned literals.

const char* const kAttrs[] = {"a", "b", "c", "d"};  // int, double, string, bool
const CompareOp kOps[] = {CompareOp::kEq, CompareOp::kLt};
const char* const kPatterns[] = {"$int", "$float", "$string", "$bool", "$any",
                                 "2",    "2.0",    "3",       "0.5",   "\"x\""};

// Constants the conditions draw from: every pinned literal, its other-type
// twin (Int(2) vs 2.0), values of every type that no grammar pins, null.
std::vector<Value> ConstantPool() {
  return {Value::Int(2),       Value::Double(2.0),   Value::Int(3),
          Value::Double(3.0),  Value::Double(0.5),   Value::Int(7),
          Value::String("x"),  Value::String("y"),   Value::Bool(true),
          Value::Bool(false),  Value::Null()};
}

struct AtomSpec {
  size_t attr = 0;
  size_t op = 0;
  size_t pattern = 0;
};

struct RuleSpec {
  bool is_and = true;
  std::vector<AtomSpec> atoms;
};

std::string RenderSsdl(const std::vector<RuleSpec>& rules, Rng* rng) {
  std::string text = "source pins(a: int, b: double, c: string, d: bool) {\n";
  for (size_t r = 0; r < rules.size(); ++r) {
    text += "  rule r" + std::to_string(r) + " ->";
    for (size_t i = 0; i < rules[r].atoms.size(); ++i) {
      const AtomSpec& atom = rules[r].atoms[i];
      if (i > 0) text += rules[r].is_and ? " and" : " or";
      text += std::string(" ") + kAttrs[atom.attr] + " " +
              CompareOpSymbol(kOps[atom.op]) + " " + kPatterns[atom.pattern];
    }
    text += ";\n";
  }
  for (size_t r = 0; r < rules.size(); ++r) {
    std::string exports;
    for (const char* attr : kAttrs) {
      if (!rng->NextBool()) continue;
      if (!exports.empty()) exports += ", ";
      exports += attr;
    }
    if (exports.empty()) exports = kAttrs[rng->NextIndex(4)];
    text += "  export r" + std::to_string(r) + " : {" + exports + "};\n";
  }
  return text + "}\n";
}

// A constant the pattern accepts, or one it may reject.
Value ConstantFor(size_t pattern, Rng* rng) {
  const std::vector<Value> pool = ConstantPool();
  if (rng->NextBool(0.4)) return pool[rng->NextIndex(pool.size())];
  switch (pattern) {
    case 0:  // $int
      return rng->NextBool() ? Value::Int(2) : Value::Int(7);
    case 1:  // $float
      return rng->NextBool() ? Value::Double(0.5) : Value::Int(2);
    case 2:  // $string
      return rng->NextBool() ? Value::String("x") : Value::String("y");
    case 3:  // $bool
      return Value::Bool(rng->NextBool());
    case 4:  // $any
      return rng->NextBool() ? Value::Null() : Value::Double(2.0);
    case 5:  // 2
      return rng->NextBool() ? Value::Int(2) : Value::Double(2.0);
    case 6:  // 2.0
      return rng->NextBool() ? Value::Double(2.0) : Value::Int(2);
    case 7:  // 3
      return Value::Int(3);
    case 8:  // 0.5
      return Value::Double(0.5);
    default:  // "x"
      return Value::String("x");
  }
}

// Instantiates a rule as a condition: atom order shuffled (the closure
// accepts every order), operator and constants mostly the accepted ones.
ConditionPtr FromRule(const RuleSpec& rule, Rng* rng) {
  std::vector<ConditionPtr> atoms;
  for (const AtomSpec& spec : rule.atoms) {
    const size_t op = rng->NextBool(0.8) ? spec.op : 1 - spec.op;
    atoms.push_back(ConditionNode::Atom(kAttrs[spec.attr], kOps[op],
                                        ConstantFor(spec.pattern, rng)));
  }
  rng->Shuffle(&atoms);
  if (atoms.size() == 1) return atoms.front();
  return rule.is_and ? ConditionNode::And(std::move(atoms))
                     : ConditionNode::Or(std::move(atoms));
}

class CheckOracleTest : public ::testing::TestWithParam<int> {
 protected:
  uint64_t CaseSeed() const {
    return BaseSeed() * 99991ull + static_cast<uint64_t>(GetParam()) * 7919ull;
  }
};

TEST_P(CheckOracleTest, ShapeMemoMatchesFreshChecker) {
  Rng rng(CaseSeed());

  // RandomCapability grammars over data-drawn constants.
  {
    const Schema schema({{"s1", ValueType::kString},
                         {"s2", ValueType::kString},
                         {"n1", ValueType::kInt},
                         {"n2", ValueType::kInt}});
    const std::unique_ptr<Table> table =
        MakeRandomTable("src", schema, /*rows=*/60, /*string_pool=*/8,
                        /*value_range=*/30, &rng);
    const SourceDescription closed = CommutativityClosure(
        RandomCapability("src", schema, RandomCapabilityOptions{}, &rng));
    const std::vector<AttributeDomain> domains =
        ExtractDomains(*table, /*max_samples=*/6, &rng);
    std::vector<ConditionPtr> bases;
    RandomConditionOptions cond_options;
    for (int i = 0; i < 24; ++i) {
      cond_options.num_atoms = 1 + rng.NextIndex(4);
      bases.push_back(RandomCondition(domains, cond_options, &rng));
    }
    CheckWithFreshTwins(closed, bases, &rng);
  }

  // SSDL text whose rules pin literals.
  {
    std::vector<RuleSpec> rules(2 + rng.NextIndex(4));
    for (RuleSpec& rule : rules) {
      rule.is_and = rng.NextBool();
      rule.atoms.resize(1 + rng.NextIndex(3));
      for (AtomSpec& atom : rule.atoms) {
        atom.attr = rng.NextIndex(4);
        atom.op = rng.NextIndex(2);
        atom.pattern = rng.NextIndex(std::size(kPatterns));
      }
    }
    const std::string text = RenderSsdl(rules, &rng);
    SCOPED_TRACE(text);
    Result<SourceDescription> parsed = ParseSsdl(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    const SourceDescription closed = CommutativityClosure(*parsed);
    const std::vector<Value> pool = ConstantPool();
    std::vector<ConditionPtr> bases;
    for (int i = 0; i < 24; ++i) {
      ConditionPtr cond = FromRule(rules[rng.NextIndex(rules.size())], &rng);
      if (rng.NextBool(0.25)) {
        const ConditionPtr stray = ConditionNode::Atom(
            kAttrs[rng.NextIndex(4)], kOps[rng.NextIndex(2)],
            pool[rng.NextIndex(pool.size())]);
        cond = rng.NextBool() ? ConditionNode::And({cond, stray})
                              : ConditionNode::Or({cond, stray});
      }
      bases.push_back(std::move(cond));
    }
    CheckWithFreshTwins(closed, bases, &rng);
  }

  // Every pool constant on every attribute, one Checker for all, in a
  // seed-shuffled order: Int(2) and Double(2.0) share a value but not a
  // type, Int(2) and Int(3) share a type but only one is pinned.
  {
    Result<SourceDescription> pins = ParseSsdl(R"(
      source pins(a: int, b: double, c: string, d: bool) {
        rule by_int -> a = $int;
        rule by_pin -> a = 2.0;
        rule by_float -> b = $float;
        rule by_float_pin -> b = 2.0;
        rule by_any -> c = $any;
        rule by_string_pin -> c = "x";
        rule by_bool -> d = $bool;
        export by_int : {a};
        export by_pin : {b};
        export by_float : {c};
        export by_float_pin : {d};
        export by_any : {a, b};
        export by_string_pin : {c, d};
        export by_bool : {b, d};
      })");
    ASSERT_TRUE(pins.ok()) << pins.status().ToString();
    std::vector<ConditionPtr> conds;
    for (const char* attr : kAttrs) {
      for (const Value& constant : ConstantPool()) {
        conds.push_back(ConditionNode::Atom(attr, CompareOp::kEq, constant));
      }
    }
    rng.Shuffle(&conds);
    Checker memo(&*pins);
    for (const ConditionPtr& cond : conds) {
      ExpectMatchesOracle(&memo, *pins, *cond);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckOracleTest, ::testing::Range(0, 12));

}  // namespace
}  // namespace gencompact
