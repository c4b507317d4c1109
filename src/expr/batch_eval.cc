#include "expr/batch_eval.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

#include "common/strings.h"
#include "expr/compare_op.h"

namespace gencompact {

namespace {

// Three-way comparison identical to the Value::Compare numeric arm.
inline int ThreeWay(double a, double b) { return a == b ? 0 : (a < b ? -1 : 1); }
inline int ThreeWay(int64_t a, int64_t b) { return a == b ? 0 : (a < b ? -1 : 1); }

// Type rank used by Value::Compare for cross-type ordering.
int TypeRankOf(ValueType t) {
  switch (t) {
    case ValueType::kNull:
      return 0;
    case ValueType::kBool:
      return 1;
    case ValueType::kInt:
    case ValueType::kDouble:
      return 2;
    case ValueType::kString:
      return 3;
  }
  return 4;
}

/// The dense row range [begin, begin + n) read as a selection, without
/// materializing it.
struct DenseRows {
  uint32_t begin;
  uint32_t operator[](size_t i) const {
    return begin + static_cast<uint32_t>(i);
  }
};

}  // namespace

Result<CompiledEvaluator> CompiledEvaluator::Compile(const ConditionNode& cond,
                                                     const RowLayout& layout,
                                                     const Schema& schema) {
  CompiledEvaluator evaluator;
  GC_ASSIGN_OR_RETURN(evaluator.root_,
                      evaluator.CompileNode(cond, layout, schema));
  for (const Node& node : evaluator.nodes_) {
    if (node.slot >= 0 && node.kernel != Kernel::kConstFalse) {
      evaluator.slots_.Add(node.slot);
    }
  }
  evaluator.const_code_.assign(evaluator.nodes_.size(), Column::kNullCode);
  evaluator.member_.resize(evaluator.nodes_.size());
  evaluator.sel_scratch_.resize(evaluator.nodes_.size());
  evaluator.rem_scratch_.resize(evaluator.nodes_.size());
  evaluator.mark_scratch_.resize(evaluator.nodes_.size());
  return evaluator;
}

Result<size_t> CompiledEvaluator::CompileNode(const ConditionNode& cond,
                                              const RowLayout& layout,
                                              const Schema& schema) {
  Node node;
  switch (cond.kind()) {
    case ConditionNode::Kind::kTrue:
      node.kernel = Kernel::kTrue;
      break;
    case ConditionNode::Kind::kAnd:
    case ConditionNode::Kind::kOr: {
      node.kernel = cond.kind() == ConditionNode::Kind::kAnd ? Kernel::kAnd
                                                             : Kernel::kOr;
      for (const ConditionPtr& child : cond.children()) {
        GC_ASSIGN_OR_RETURN(const size_t id,
                            CompileNode(*child, layout, schema));
        node.children.push_back(id);
      }
      // A list field: every child a string = on one column. The children
      // stay compiled for Matches; FilterBatch tests code membership.
      const auto listed = [&](size_t child) {
        const Node& atom = nodes_[child];
        return atom.kernel == Kernel::kStringCode && atom.eq &&
               atom.slot == nodes_[node.children.front()].slot;
      };
      if (node.kernel == Kernel::kOr && !node.children.empty() &&
          std::all_of(node.children.begin(), node.children.end(), listed)) {
        node.kernel = Kernel::kStringIn;
        node.slot = nodes_[node.children.front()].slot;
      }
      break;
    }
    case ConditionNode::Kind::kAtom: {
      const AtomicCondition& atom = cond.atom();
      GC_ASSIGN_OR_RETURN(const int index,
                          schema.RequireIndex(atom.attribute));
      const int slot = layout.SlotOf(index);
      if (slot < 0) {
        return Status::NotFound("attribute " + atom.attribute +
                                " not present in row layout");
      }
      node.slot = slot;
      node.op = atom.op;
      node.constant = atom.constant;
      const ValueType column_type = schema.attribute(index).type;
      const ValueType const_type = atom.constant.type();

      // op as a three-way mask: result = {lt,eq,gt}[sign(Compare)+1].
      switch (atom.op) {
        case CompareOp::kEq:
          node.eq = true;
          break;
        case CompareOp::kNe:
          node.lt = node.gt = true;
          break;
        case CompareOp::kLt:
          node.lt = true;
          break;
        case CompareOp::kLe:
          node.lt = node.eq = true;
          break;
        case CompareOp::kGt:
          node.gt = true;
          break;
        case CompareOp::kGe:
          node.eq = node.gt = true;
          break;
        case CompareOp::kContains:
        case CompareOp::kStartsWith:
          break;
      }

      // Kernel selection (EvalCompare semantics, decided once):
      if (const_type == ValueType::kNull) {
        node.kernel = Kernel::kConstFalse;  // NULL operand: always false
      } else if (atom.op == CompareOp::kContains ||
                 atom.op == CompareOp::kStartsWith) {
        // String predicates require strings on BOTH sides.
        if (column_type == ValueType::kString &&
            const_type == ValueType::kString) {
          node.kernel = atom.op == CompareOp::kContains ? Kernel::kContains
                                                        : Kernel::kStartsWith;
        } else {
          node.kernel = Kernel::kConstFalse;
        }
      } else if ((column_type == ValueType::kInt ||
                  column_type == ValueType::kDouble) &&
                 (const_type == ValueType::kInt ||
                  const_type == ValueType::kDouble)) {
        node.kernel = Kernel::kNumericCmp;
        node.const_is_int = const_type == ValueType::kInt;
        node.const_int = node.const_is_int ? atom.constant.int_value() : 0;
        node.const_dbl = atom.constant.AsDouble();
      } else if (column_type == ValueType::kString &&
                 const_type == ValueType::kString) {
        node.kernel = atom.op == CompareOp::kEq || atom.op == CompareOp::kNe
                          ? Kernel::kStringCode
                          : Kernel::kStringCmp;
      } else if (column_type == ValueType::kBool &&
                 const_type == ValueType::kBool) {
        node.kernel = Kernel::kBoolCmp;
      } else {
        // Type ranks differ for every non-null cell: the atom is a fixed
        // result (false for null cells, like every atom).
        const int c = ThreeWay(static_cast<int64_t>(TypeRankOf(column_type)),
                               static_cast<int64_t>(TypeRankOf(const_type)));
        const bool result = (c < 0 && node.lt) || (c == 0 && node.eq) ||
                            (c > 0 && node.gt);
        node.kernel = result ? Kernel::kNonNullConst : Kernel::kConstFalse;
      }
      break;
    }
  }
  nodes_.push_back(std::move(node));
  return nodes_.size() - 1;
}

bool CompiledEvaluator::MatchNode(size_t id, const Row& row) const {
  const Node& node = nodes_[id];
  switch (node.kernel) {
    case Kernel::kTrue:
      return true;
    case Kernel::kAnd:
      for (const size_t child : node.children) {
        if (!MatchNode(child, row)) return false;
      }
      return true;
    case Kernel::kOr:
    case Kernel::kStringIn:
      for (const size_t child : node.children) {
        if (MatchNode(child, row)) return true;
      }
      return false;
    default:
      // Every atom kernel evaluates identically on the row path.
      return EvalCompare(node.op, row.value(static_cast<size_t>(node.slot)),
                         node.constant);
  }
}

template <typename Rows>
size_t CompiledEvaluator::FilterAtom(size_t id, const Column& col, Rows in,
                                     size_t n, uint32_t* out) const {
  const Node& node = nodes_[id];
  size_t m = 0;
  switch (node.kernel) {
    case Kernel::kConstFalse:
      break;
    case Kernel::kNonNullConst:
      for (size_t i = 0; i < n; ++i) {
        if (!col.IsNull(in[i])) out[m++] = in[i];
      }
      break;
    case Kernel::kNumericCmp: {
      const uint8_t* tags = col.tag.data();
      const int64_t* nums = col.nums.data();
      for (size_t i = 0; i < n; ++i) {
        const uint32_t r = in[i];
        const ValueType tag = static_cast<ValueType>(tags[r]);
        if (tag == ValueType::kNull) continue;
        int c;
        if (tag == ValueType::kInt && node.const_is_int) {
          c = ThreeWay(nums[r], node.const_int);  // exact int/int
        } else {
          const double v = tag == ValueType::kInt
                               ? static_cast<double>(nums[r])
                               : std::bit_cast<double>(nums[r]);
          c = ThreeWay(v, node.const_dbl);
        }
        if ((c < 0 && node.lt) || (c == 0 && node.eq) || (c > 0 && node.gt)) {
          out[m++] = r;
        }
      }
      break;
    }
    case Kernel::kStringCode: {
      // Equal strings share a code; NULL cells hold kNullCode, and so does
      // a constant no cell holds: `=` then matches nothing, `!=` every
      // non-null cell.
      const uint32_t k = const_code_[id];
      const uint32_t* codes = col.codes.data();
      if (node.eq) {
        if (k == Column::kNullCode) break;
        for (size_t i = 0; i < n; ++i) {
          out[m] = in[i];
          m += codes[in[i]] == k;
        }
      } else {
        for (size_t i = 0; i < n; ++i) {
          const uint32_t code = codes[in[i]];
          out[m] = in[i];
          m += code != k && code != Column::kNullCode;
        }
      }
      break;
    }
    case Kernel::kStringIn: {
      // member[code + 1]: kNullCode wraps to the clear slot 0, so NULL
      // cells fail without a branch.
      const std::vector<uint8_t>& member = member_[id];
      if (member.empty()) break;
      const uint32_t* codes = col.codes.data();
      for (size_t i = 0; i < n; ++i) {
        out[m] = in[i];
        m += member[codes[in[i]] + 1u];
      }
      break;
    }
    case Kernel::kStringCmp: {
      const std::string& rhs = node.constant.string_value();
      for (size_t i = 0; i < n; ++i) {
        const uint32_t r = in[i];
        if (col.codes[r] == Column::kNullCode) continue;
        const int cmp = col.StringAt(r).compare(rhs);
        const int c = cmp == 0 ? 0 : (cmp < 0 ? -1 : 1);
        if ((c < 0 && node.lt) || (c == 0 && node.eq) || (c > 0 && node.gt)) {
          out[m++] = r;
        }
      }
      break;
    }
    case Kernel::kContains: {
      const std::string& needle = node.constant.string_value();
      for (size_t i = 0; i < n; ++i) {
        const uint32_t r = in[i];
        if (col.codes[r] == Column::kNullCode) continue;
        if (Contains(col.StringAt(r), needle)) out[m++] = r;
      }
      break;
    }
    case Kernel::kStartsWith: {
      const std::string& prefix = node.constant.string_value();
      for (size_t i = 0; i < n; ++i) {
        const uint32_t r = in[i];
        if (col.codes[r] == Column::kNullCode) continue;
        if (StartsWith(col.StringAt(r), prefix)) out[m++] = r;
      }
      break;
    }
    case Kernel::kBoolCmp: {
      const bool rhs = node.constant.bool_value();
      for (size_t i = 0; i < n; ++i) {
        const uint32_t r = in[i];
        if (col.tag[r] == static_cast<uint8_t>(ValueType::kNull)) continue;
        const bool lhs = col.bools[r] != 0;
        const int c = lhs == rhs ? 0 : (lhs < rhs ? -1 : 1);
        if ((c < 0 && node.lt) || (c == 0 && node.eq) || (c > 0 && node.gt)) {
          out[m++] = r;
        }
      }
      break;
    }
    default:
      assert(false && "connector kernel in FilterAtom");
      break;
  }
  return m;
}

size_t CompiledEvaluator::FilterNode(size_t id, const uint32_t* in, size_t n,
                                     uint32_t begin,
                                     const ColumnStore& store) const {
  const Node& node = nodes_[id];
  std::vector<uint32_t>& out = sel_scratch_[id];
  if (out.size() < n) out.resize(n);
  switch (node.kernel) {
    case Kernel::kTrue:
      std::memcpy(out.data(), in, n * sizeof(uint32_t));
      return n;
    case Kernel::kAnd:
      return FilterAnd(id, 0, in, n, begin, store);
    case Kernel::kOr: {
      // Children see only the not-yet-matched remainder; matches are
      // disjoint, so the final result is the mark bitmap replayed over the
      // input order.
      std::vector<uint8_t>& marks = mark_scratch_[id];
      std::vector<uint32_t>& remaining = rem_scratch_[id];
      size_t max_width = 0;
      for (size_t i = 0; i < n; ++i) {
        max_width = std::max<size_t>(max_width, in[i] - begin + 1);
      }
      if (marks.size() < max_width) marks.resize(max_width);
      std::memset(marks.data(), 0, max_width);
      if (remaining.size() < n) remaining.resize(n);
      std::memcpy(remaining.data(), in, n * sizeof(uint32_t));
      size_t remaining_count = n;
      size_t matched = 0;
      for (const size_t child : node.children) {
        if (remaining_count == 0) break;
        const size_t m =
            FilterNode(child, remaining.data(), remaining_count, begin, store);
        if (m == 0) continue;
        const std::vector<uint32_t>& hits = sel_scratch_[child];
        for (size_t i = 0; i < m; ++i) marks[hits[i] - begin] = 1;
        matched += m;
        // Compact the remainder in place.
        size_t next = 0;
        for (size_t i = 0; i < remaining_count; ++i) {
          if (!marks[remaining[i] - begin]) remaining[next++] = remaining[i];
        }
        remaining_count = next;
      }
      size_t count = 0;
      for (size_t i = 0; i < n && count < matched; ++i) {
        if (marks[in[i] - begin]) out[count++] = in[i];
      }
      return count;
    }
    default:
      return FilterAtom(id, store.column(static_cast<size_t>(node.slot)), in,
                        n, out.data());
  }
}

size_t CompiledEvaluator::FilterAnd(size_t id, size_t first,
                                    const uint32_t* in, size_t n,
                                    uint32_t begin,
                                    const ColumnStore& store) const {
  // Chain: each child narrows the previous survivor list.
  const Node& node = nodes_[id];
  std::vector<uint32_t>& out = sel_scratch_[id];
  if (out.size() < n) out.resize(n);
  const uint32_t* cur = in;
  size_t count = n;
  for (size_t i = first; i < node.children.size() && count > 0; ++i) {
    const size_t child = node.children[i];
    count = FilterNode(child, cur, count, begin, store);
    cur = sel_scratch_[child].data();
  }
  if (count > 0 && cur != out.data()) {
    std::memcpy(out.data(), cur, count * sizeof(uint32_t));
  }
  return count;
}

void CompiledEvaluator::FilterBatch(ColumnBatch* batch) const {
  const ColumnStore& store = *batch->store;
  if (bound_ != &store || bound_rows_ != store.num_rows()) {
    for (size_t id = 0; id < nodes_.size(); ++id) {
      const Node& node = nodes_[id];
      if (node.kernel == Kernel::kStringCode) {
        const_code_[id] = store.column(static_cast<size_t>(node.slot))
                              .CodeOf(node.constant.string_value());
      } else if (node.kernel == Kernel::kStringIn) {
        const Column& col = store.column(static_cast<size_t>(node.slot));
        std::vector<uint8_t>& member = member_[id];
        member.clear();
        for (const size_t child : node.children) {
          const uint32_t code =
              col.CodeOf(nodes_[child].constant.string_value());
          if (code == Column::kNullCode) continue;  // no cell holds it
          if (member.empty()) member.assign(col.dict.size() + 1, 0);
          member[code + 1u] = 1;
        }
      }
    }
    bound_ = &store;
    bound_rows_ = store.num_rows();
  }
  const size_t width = batch->width();
  // Dense first pass: the leaf kernel every row of the batch meets — the
  // root, or the root ∧'s first child — reads [begin, end) directly, and
  // the rest of the ∧ chains on its survivors.
  const Node& root = nodes_[root_];
  const size_t lead = root.kernel == Kernel::kAnd && !root.children.empty()
                          ? root.children.front()
                          : root_;
  const Node& first = nodes_[lead];
  size_t count = 0;
  if (first.kernel != Kernel::kTrue && first.kernel != Kernel::kAnd &&
      first.kernel != Kernel::kOr) {
    std::vector<uint32_t>& hits = sel_scratch_[lead];
    if (hits.size() < width) hits.resize(width);
    count = FilterAtom(lead, store.column(static_cast<size_t>(first.slot)),
                       DenseRows{batch->begin}, width, hits.data());
    if (lead != root_) {
      count = FilterAnd(root_, 1, hits.data(), count, batch->begin, store);
    }
  } else {
    if (iota_.size() < width) iota_.resize(width);
    for (size_t i = 0; i < width; ++i) {
      iota_[i] = batch->begin + static_cast<uint32_t>(i);
    }
    count = FilterNode(root_, iota_.data(), width, batch->begin, store);
  }
  const std::vector<uint32_t>& result = sel_scratch_[root_];
  batch->selection.assign(result.begin(), result.begin() + count);
}

}  // namespace gencompact
