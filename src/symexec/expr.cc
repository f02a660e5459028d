#include "src/symexec/expr.h"

#include <algorithm>
#include <cassert>

#include "src/support/strings.h"

namespace symx {
namespace {

uint64_t HashNode(const ExprNode& node) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  mix(static_cast<uint64_t>(node.op));
  mix(static_cast<uint64_t>(node.imm));
  mix(static_cast<uint64_t>(static_cast<int64_t>(node.var_id)));
  mix(static_cast<uint64_t>(static_cast<int64_t>(node.a)));
  mix(static_cast<uint64_t>(static_cast<int64_t>(node.b)));
  mix(static_cast<uint64_t>(static_cast<int64_t>(node.c)));
  return h;
}

bool SameNode(const ExprNode& x, const ExprNode& y) {
  return x.op == y.op && x.imm == y.imm && x.var_id == y.var_id && x.a == y.a && x.b == y.b &&
         x.c == y.c;
}

}  // namespace

ExprPool::ExprPool(int width) : width_(width) {
  assert(width >= 2 && width <= 64);
}

int64_t ExprPool::SignExtend(uint64_t value) const {
  value &= Mask();
  if (width_ == 64) {
    return static_cast<int64_t>(value);
  }
  const uint64_t sign_bit = 1ULL << (width_ - 1);
  if (value & sign_bit) {
    return static_cast<int64_t>(value | ~Mask());
  }
  return static_cast<int64_t>(value);
}

ExprRef ExprPool::Intern(const ExprNode& node) {
  const uint64_t h = HashNode(node);
  auto& bucket = intern_[h];
  for (ExprRef ref : bucket) {
    if (SameNode(nodes_[static_cast<size_t>(ref)], node)) {
      return ref;
    }
  }
  ExprNode stored = node;
  uint64_t size = 1;
  for (const ExprRef child : {node.a, node.b, node.c}) {
    if (child != kNoExpr) {
      size += nodes_[static_cast<size_t>(child)].tree_size;
    }
  }
  stored.tree_size = static_cast<uint32_t>(std::min<uint64_t>(size, 0xffffffffULL));
  nodes_.push_back(stored);
  const ExprRef ref = static_cast<ExprRef>(nodes_.size() - 1);
  bucket.push_back(ref);
  return ref;
}

ExprRef ExprPool::Const(int64_t value) {
  ExprNode node;
  node.op = ExprOp::kConst;
  node.imm = SignExtend(static_cast<uint64_t>(value));
  return Intern(node);
}

ExprRef ExprPool::FreshVar(const std::string& name) {
  ExprNode node;
  node.op = ExprOp::kVar;
  node.var_id = static_cast<int32_t>(var_names_.size());
  var_names_.push_back(name);
  return Intern(node);
}

bool ExprPool::TryFold(const ExprNode& node, int64_t& out) const {
  auto cval = [this](ExprRef r) { return nodes_[static_cast<size_t>(r)].imm; };
  auto is_const = [this](ExprRef r) {
    return r != kNoExpr && nodes_[static_cast<size_t>(r)].op == ExprOp::kConst;
  };
  switch (node.op) {
    case ExprOp::kConst:
    case ExprOp::kVar:
      return false;
    case ExprOp::kNeg:
    case ExprOp::kNot:
    case ExprOp::kBoolNot:
      if (!is_const(node.a)) {
        return false;
      }
      break;
    case ExprOp::kIte:
      if (!is_const(node.a) || !is_const(node.b) || !is_const(node.c)) {
        return false;
      }
      break;
    default:
      if (!is_const(node.a) || !is_const(node.b)) {
        return false;
      }
      break;
  }
  const uint64_t mask = Mask();
  const int64_t a = node.a == kNoExpr ? 0 : cval(node.a);
  const int64_t b = node.b == kNoExpr ? 0 : cval(node.b);
  switch (node.op) {
    case ExprOp::kAdd:
      out = SignExtend(static_cast<uint64_t>(a) + static_cast<uint64_t>(b));
      return true;
    case ExprOp::kSub:
      out = SignExtend(static_cast<uint64_t>(a) - static_cast<uint64_t>(b));
      return true;
    case ExprOp::kMul:
      out = SignExtend(static_cast<uint64_t>(a) * static_cast<uint64_t>(b));
      return true;
    case ExprOp::kNeg:
      out = SignExtend(0 - static_cast<uint64_t>(a));
      return true;
    case ExprOp::kNot:
      out = SignExtend(~static_cast<uint64_t>(a));
      return true;
    case ExprOp::kAnd:
      out = SignExtend(static_cast<uint64_t>(a) & static_cast<uint64_t>(b));
      return true;
    case ExprOp::kOr:
      out = SignExtend(static_cast<uint64_t>(a) | static_cast<uint64_t>(b));
      return true;
    case ExprOp::kXor:
      out = SignExtend(static_cast<uint64_t>(a) ^ static_cast<uint64_t>(b));
      return true;
    case ExprOp::kShl: {
      const uint64_t sh = static_cast<uint64_t>(b) & (static_cast<uint64_t>(width_) - 1);
      out = SignExtend((static_cast<uint64_t>(a) & mask) << sh);
      return true;
    }
    case ExprOp::kShr: {
      const uint64_t sh = static_cast<uint64_t>(b) & (static_cast<uint64_t>(width_) - 1);
      out = SignExtend((static_cast<uint64_t>(a) & mask) >> sh);
      return true;
    }
    case ExprOp::kEq:
      out = a == b ? 1 : 0;
      return true;
    case ExprOp::kNe:
      out = a != b ? 1 : 0;
      return true;
    case ExprOp::kSlt:
      out = a < b ? 1 : 0;
      return true;
    case ExprOp::kSle:
      out = a <= b ? 1 : 0;
      return true;
    case ExprOp::kBoolNot:
      out = a == 0 ? 1 : 0;
      return true;
    case ExprOp::kIte:
      out = a != 0 ? b : cval(node.c);
      return true;
    default:
      return false;
  }
}

ExprRef ExprPool::Unary(ExprOp op, ExprRef a) {
  ExprNode node;
  node.op = op;
  node.a = a;
  int64_t folded;
  if (TryFold(node, folded)) {
    ++simplifier_folds_;
    return Const(folded);
  }
  // Normalizing rewrites. Operand fields are copied up front because the
  // builders called below may reallocate nodes_.
  const ExprOp a_op = nodes_[static_cast<size_t>(a)].op;
  const ExprRef a_a = nodes_[static_cast<size_t>(a)].a;
  const ExprRef a_b = nodes_[static_cast<size_t>(a)].b;
  if ((op == ExprOp::kNeg && a_op == ExprOp::kNeg) ||
      (op == ExprOp::kNot && a_op == ExprOp::kNot)) {
    ++simplifier_folds_;
    return a_a;  // Double negation / double complement.
  }
  if (op == ExprOp::kBoolNot) {
    // Comparisons are 0/1-valued: their logical negation is the dual /
    // swapped comparison, and !!x is x != 0.
    switch (a_op) {
      case ExprOp::kEq:
        ++simplifier_folds_;
        return Binary(ExprOp::kNe, a_a, a_b);
      case ExprOp::kNe:
        ++simplifier_folds_;
        return Binary(ExprOp::kEq, a_a, a_b);
      case ExprOp::kSlt:
        ++simplifier_folds_;
        return Binary(ExprOp::kSle, a_b, a_a);
      case ExprOp::kSle:
        ++simplifier_folds_;
        return Binary(ExprOp::kSlt, a_b, a_a);
      case ExprOp::kBoolNot:
        ++simplifier_folds_;
        return Truthy(a_a);
      default:
        break;
    }
  }
  return Intern(node);
}

ExprRef ExprPool::Binary(ExprOp op, ExprRef a, ExprRef b) {
  ExprNode node;
  node.op = op;
  node.a = a;
  node.b = b;
  int64_t folded;
  if (TryFold(node, folded)) {
    ++simplifier_folds_;
    return Const(folded);
  }
  // Identity/annihilator/idempotence rules: many loop-generated conditions
  // collapse to constants here and never reach the solver, and the rest
  // bit-blast to smaller CNF. `keep` records the fold before returning an
  // existing ref; `make` does the same before building a constant. Operand
  // nodes are copied (not referenced): Const() may reallocate nodes_.
  auto keep = [this](ExprRef r) {
    ++simplifier_folds_;
    return r;
  };
  auto make = [this](int64_t value) {
    ++simplifier_folds_;
    return Const(value);
  };
  const ExprNode na = nodes_[static_cast<size_t>(a)];
  const ExprNode nb = nodes_[static_cast<size_t>(b)];
  const bool ca = na.op == ExprOp::kConst;
  const bool cb = nb.op == ExprOp::kConst;
  const int64_t all_ones = SignExtend(Mask());
  switch (op) {
    case ExprOp::kAdd:
      if (cb && nb.imm == 0) {
        return keep(a);
      }
      if (ca && na.imm == 0) {
        return keep(b);
      }
      break;
    case ExprOp::kSub:
      if (cb && nb.imm == 0) {
        return keep(a);
      }
      if (a == b) {
        return make(0);
      }
      break;
    case ExprOp::kMul:
      if ((ca && na.imm == 0) || (cb && nb.imm == 0)) {
        return make(0);
      }
      if (cb && nb.imm == 1) {
        return keep(a);
      }
      if (ca && na.imm == 1) {
        return keep(b);
      }
      break;
    case ExprOp::kAnd:
      if ((ca && na.imm == 0) || (cb && nb.imm == 0)) {
        return make(0);
      }
      if (cb && nb.imm == all_ones) {
        return keep(a);
      }
      if (ca && na.imm == all_ones) {
        return keep(b);
      }
      if (a == b) {
        return keep(a);
      }
      break;
    case ExprOp::kOr:
      if (cb && nb.imm == 0) {
        return keep(a);
      }
      if (ca && na.imm == 0) {
        return keep(b);
      }
      if ((ca && na.imm == all_ones) || (cb && nb.imm == all_ones)) {
        return make(all_ones);
      }
      if (a == b) {
        return keep(a);
      }
      break;
    case ExprOp::kXor:
      if (cb && nb.imm == 0) {
        return keep(a);
      }
      if (ca && na.imm == 0) {
        return keep(b);
      }
      if (a == b) {
        return make(0);
      }
      break;
    case ExprOp::kShl:
    case ExprOp::kShr:
      if (ca && na.imm == 0) {
        return make(0);
      }
      // Shift amounts act modulo the width (same computation as Eval/TryFold).
      if (cb &&
          (static_cast<uint64_t>(nb.imm) & (static_cast<uint64_t>(width_) - 1)) == 0) {
        return keep(a);
      }
      break;
    case ExprOp::kEq:
    case ExprOp::kSle:
      if (a == b) {
        return make(1);
      }
      break;
    case ExprOp::kNe:
    case ExprOp::kSlt:
      if (a == b) {
        return make(0);
      }
      break;
    default:
      break;
  }
  return Intern(node);
}

ExprRef ExprPool::Ite(ExprRef cond, ExprRef then_e, ExprRef else_e) {
  ExprNode node;
  node.op = ExprOp::kIte;
  node.a = cond;
  node.b = then_e;
  node.c = else_e;
  int64_t folded;
  if (TryFold(node, folded)) {
    ++simplifier_folds_;
    return Const(folded);
  }
  const ExprNode& nc = nodes_[static_cast<size_t>(cond)];
  if (nc.op == ExprOp::kConst) {
    ++simplifier_folds_;
    return nc.imm != 0 ? then_e : else_e;
  }
  if (then_e == else_e) {
    ++simplifier_folds_;
    return then_e;
  }
  return Intern(node);
}

ExprRef ExprPool::Truthy(ExprRef a) {
  // Comparison results are already 0/1; wrapping them in `!= 0` would only
  // obscure their shape from the executor's constraint subsumption.
  const ExprNode& node = nodes_[static_cast<size_t>(a)];
  switch (node.op) {
    case ExprOp::kEq:
    case ExprOp::kNe:
    case ExprOp::kSlt:
    case ExprOp::kSle:
    case ExprOp::kBoolNot:
      return a;
    default:
      return Binary(ExprOp::kNe, a, Const(0));
  }
}

ExprRef ExprPool::Falsy(ExprRef a) {
  // Comparisons are 0/1-valued, so their logical negation is the swapped /
  // dual comparison; normalising here keeps path conditions in a shape the
  // executor's constraint subsumption recognises.
  const ExprNode& node = nodes_[static_cast<size_t>(a)];
  switch (node.op) {
    case ExprOp::kEq:
      return Binary(ExprOp::kNe, node.a, node.b);
    case ExprOp::kNe:
      return Binary(ExprOp::kEq, node.a, node.b);
    case ExprOp::kSlt:
      return Binary(ExprOp::kSle, node.b, node.a);
    case ExprOp::kSle:
      return Binary(ExprOp::kSlt, node.b, node.a);
    case ExprOp::kBoolNot:
      return Truthy(node.a);
    default:
      return Unary(ExprOp::kBoolNot, a);
  }
}

ExprRef ExprPool::FromUnaryOp(lang::UnaryOp op, ExprRef a) {
  switch (op) {
    case lang::UnaryOp::kNeg:
      return Unary(ExprOp::kNeg, a);
    case lang::UnaryOp::kNot:
      return Unary(ExprOp::kBoolNot, a);
    case lang::UnaryOp::kBitNot:
      return Unary(ExprOp::kNot, a);
    case lang::UnaryOp::kPreInc:
      return Binary(ExprOp::kAdd, a, Const(1));
    case lang::UnaryOp::kPreDec:
      return Binary(ExprOp::kSub, a, Const(1));
  }
  return a;
}

ExprRef ExprPool::FromBinaryOp(lang::BinaryOp op, ExprRef a, ExprRef b, bool& made_fresh) {
  made_fresh = false;
  switch (op) {
    case lang::BinaryOp::kAdd:
      return Binary(ExprOp::kAdd, a, b);
    case lang::BinaryOp::kSub:
      return Binary(ExprOp::kSub, a, b);
    case lang::BinaryOp::kMul:
      return Binary(ExprOp::kMul, a, b);
    case lang::BinaryOp::kDiv:
    case lang::BinaryOp::kRem: {
      // Concrete operands fold exactly; symbolic division is
      // over-approximated by a fresh unconstrained value (see header).
      const ExprNode& na = nodes_[static_cast<size_t>(a)];
      const ExprNode& nb = nodes_[static_cast<size_t>(b)];
      if (na.op == ExprOp::kConst && nb.op == ExprOp::kConst && nb.imm != 0) {
        const int64_t q = op == lang::BinaryOp::kDiv ? na.imm / nb.imm : na.imm % nb.imm;
        return Const(q);
      }
      made_fresh = true;
      return FreshVar(op == lang::BinaryOp::kDiv ? "div_result" : "rem_result");
    }
    case lang::BinaryOp::kEq:
      return Binary(ExprOp::kEq, a, b);
    case lang::BinaryOp::kNe:
      return Binary(ExprOp::kNe, a, b);
    case lang::BinaryOp::kLt:
      return Binary(ExprOp::kSlt, a, b);
    case lang::BinaryOp::kLe:
      return Binary(ExprOp::kSle, a, b);
    case lang::BinaryOp::kGt:
      return Binary(ExprOp::kSlt, b, a);
    case lang::BinaryOp::kGe:
      return Binary(ExprOp::kSle, b, a);
    case lang::BinaryOp::kAnd: {
      // Non-short-circuit logical and (lowering only emits this for the
      // interpreter's benefit; values are 0/1).
      const ExprRef ta = Truthy(a);
      const ExprRef tb = Truthy(b);
      return Binary(ExprOp::kAnd, ta, tb);
    }
    case lang::BinaryOp::kOr: {
      const ExprRef ta = Truthy(a);
      const ExprRef tb = Truthy(b);
      return Binary(ExprOp::kOr, ta, tb);
    }
    case lang::BinaryOp::kBitAnd:
      return Binary(ExprOp::kAnd, a, b);
    case lang::BinaryOp::kBitOr:
      return Binary(ExprOp::kOr, a, b);
    case lang::BinaryOp::kBitXor:
      return Binary(ExprOp::kXor, a, b);
    case lang::BinaryOp::kShl:
      return Binary(ExprOp::kShl, a, b);
    case lang::BinaryOp::kShr:
      return Binary(ExprOp::kShr, a, b);
  }
  made_fresh = true;
  return FreshVar("unknown_op");
}

int64_t ExprPool::Eval(ExprRef ref, const std::vector<int64_t>& var_values) const {
  // Iterative post-order evaluation with a per-call epoch cache.
  if (eval_cache_.size() < nodes_.size()) {
    eval_cache_.resize(nodes_.size(), 0);
    eval_stamp_.resize(nodes_.size(), 0);
  }
  ++eval_epoch_;
  std::vector<ExprRef>& stack = eval_stack_;
  stack.assign(1, ref);
  while (!stack.empty()) {
    const ExprRef cur = stack.back();
    const auto cu = static_cast<size_t>(cur);
    if (eval_stamp_[cu] == eval_epoch_) {
      stack.pop_back();
      continue;
    }
    const ExprNode& node = nodes_[cu];
    bool ready = true;
    for (ExprRef child : {node.a, node.b, node.c}) {
      if (child != kNoExpr && eval_stamp_[static_cast<size_t>(child)] != eval_epoch_) {
        stack.push_back(child);
        ready = false;
      }
    }
    if (!ready) {
      continue;
    }
    stack.pop_back();
    const int64_t a = node.a == kNoExpr ? 0 : eval_cache_[static_cast<size_t>(node.a)];
    const int64_t b = node.b == kNoExpr ? 0 : eval_cache_[static_cast<size_t>(node.b)];
    const int64_t c = node.c == kNoExpr ? 0 : eval_cache_[static_cast<size_t>(node.c)];
    int64_t value = 0;
    switch (node.op) {
      case ExprOp::kConst:
        value = node.imm;
        break;
      case ExprOp::kVar:
        value = node.var_id >= 0 && static_cast<size_t>(node.var_id) < var_values.size()
                    ? SignExtend(static_cast<uint64_t>(var_values[static_cast<size_t>(
                          node.var_id)]))
                    : 0;
        break;
      case ExprOp::kAdd:
        value = SignExtend(static_cast<uint64_t>(a) + static_cast<uint64_t>(b));
        break;
      case ExprOp::kSub:
        value = SignExtend(static_cast<uint64_t>(a) - static_cast<uint64_t>(b));
        break;
      case ExprOp::kMul:
        value = SignExtend(static_cast<uint64_t>(a) * static_cast<uint64_t>(b));
        break;
      case ExprOp::kNeg:
        value = SignExtend(0 - static_cast<uint64_t>(a));
        break;
      case ExprOp::kNot:
        value = SignExtend(~static_cast<uint64_t>(a));
        break;
      case ExprOp::kAnd:
        value = SignExtend(static_cast<uint64_t>(a) & static_cast<uint64_t>(b));
        break;
      case ExprOp::kOr:
        value = SignExtend(static_cast<uint64_t>(a) | static_cast<uint64_t>(b));
        break;
      case ExprOp::kXor:
        value = SignExtend(static_cast<uint64_t>(a) ^ static_cast<uint64_t>(b));
        break;
      case ExprOp::kShl: {
        const uint64_t sh = static_cast<uint64_t>(b) & (static_cast<uint64_t>(width_) - 1);
        value = SignExtend((static_cast<uint64_t>(a) & Mask()) << sh);
        break;
      }
      case ExprOp::kShr: {
        const uint64_t sh = static_cast<uint64_t>(b) & (static_cast<uint64_t>(width_) - 1);
        value = SignExtend((static_cast<uint64_t>(a) & Mask()) >> sh);
        break;
      }
      case ExprOp::kEq:
        value = a == b ? 1 : 0;
        break;
      case ExprOp::kNe:
        value = a != b ? 1 : 0;
        break;
      case ExprOp::kSlt:
        value = a < b ? 1 : 0;
        break;
      case ExprOp::kSle:
        value = a <= b ? 1 : 0;
        break;
      case ExprOp::kBoolNot:
        value = a == 0 ? 1 : 0;
        break;
      case ExprOp::kIte:
        value = a != 0 ? b : c;
        break;
    }
    eval_cache_[cu] = value;
    eval_stamp_[cu] = eval_epoch_;
  }
  return eval_cache_[static_cast<size_t>(ref)];
}

bool ExprPool::IsConcrete(ExprRef ref) const {
  std::vector<ExprRef> stack = {ref};
  std::vector<bool> seen(nodes_.size(), false);
  while (!stack.empty()) {
    const ExprRef cur = stack.back();
    stack.pop_back();
    const auto cu = static_cast<size_t>(cur);
    if (seen[cu]) {
      continue;
    }
    seen[cu] = true;
    const ExprNode& node = nodes_[cu];
    if (node.op == ExprOp::kVar) {
      return false;
    }
    for (ExprRef child : {node.a, node.b, node.c}) {
      if (child != kNoExpr) {
        stack.push_back(child);
      }
    }
  }
  return true;
}

std::string ExprPool::ToString(ExprRef ref) const {
  const ExprNode& node = nodes_[static_cast<size_t>(ref)];
  switch (node.op) {
    case ExprOp::kConst:
      return std::to_string(node.imm);
    case ExprOp::kVar:
      return var_names_[static_cast<size_t>(node.var_id)];
    case ExprOp::kNeg:
      return "(- " + ToString(node.a) + ")";
    case ExprOp::kNot:
      return "(~ " + ToString(node.a) + ")";
    case ExprOp::kBoolNot:
      return "(! " + ToString(node.a) + ")";
    case ExprOp::kIte:
      return "(ite " + ToString(node.a) + " " + ToString(node.b) + " " + ToString(node.c) +
             ")";
    default: {
      const char* name = "?";
      switch (node.op) {
        case ExprOp::kAdd:
          name = "+";
          break;
        case ExprOp::kSub:
          name = "-";
          break;
        case ExprOp::kMul:
          name = "*";
          break;
        case ExprOp::kAnd:
          name = "&";
          break;
        case ExprOp::kOr:
          name = "|";
          break;
        case ExprOp::kXor:
          name = "^";
          break;
        case ExprOp::kShl:
          name = "<<";
          break;
        case ExprOp::kShr:
          name = ">>";
          break;
        case ExprOp::kEq:
          name = "==";
          break;
        case ExprOp::kNe:
          name = "!=";
          break;
        case ExprOp::kSlt:
          name = "<";
          break;
        case ExprOp::kSle:
          name = "<=";
          break;
        default:
          break;
      }
      return std::string("(") + name + " " + ToString(node.a) + " " + ToString(node.b) + ")";
    }
  }
}

}  // namespace symx
