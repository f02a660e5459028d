#include "src/symexec/bitblast.h"

#include <algorithm>
#include <cassert>

namespace symx {

BitBlaster::BitBlaster(const ExprPool& pool, SatSolver& solver)
    : pool_(pool), solver_(solver) {}

Lit BitBlaster::TrueLit() {
  if (true_lit_ == -1) {
    const Var v = solver_.NewVar();
    true_lit_ = MakeLit(v, false);
    solver_.AddUnit(true_lit_);
  }
  return true_lit_;
}

Lit BitBlaster::NewGate() { return MakeLit(solver_.NewVar(), false); }

Lit BitBlaster::AndGate(Lit a, Lit b) {
  if (a == FalseLit() || b == FalseLit()) {
    return FalseLit();
  }
  if (a == TrueLit()) {
    return b;
  }
  if (b == TrueLit()) {
    return a;
  }
  if (a == b) {
    return a;
  }
  if (a == Negate(b)) {
    return FalseLit();
  }
  const Lit out = NewGate();
  solver_.AddBinary(Negate(out), a);
  solver_.AddBinary(Negate(out), b);
  solver_.AddTernary(out, Negate(a), Negate(b));
  return out;
}

Lit BitBlaster::OrGate(Lit a, Lit b) { return Negate(AndGate(Negate(a), Negate(b))); }

Lit BitBlaster::XorGate(Lit a, Lit b) {
  if (a == FalseLit()) {
    return b;
  }
  if (b == FalseLit()) {
    return a;
  }
  if (a == TrueLit()) {
    return Negate(b);
  }
  if (b == TrueLit()) {
    return Negate(a);
  }
  if (a == b) {
    return FalseLit();
  }
  if (a == Negate(b)) {
    return TrueLit();
  }
  const Lit out = NewGate();
  solver_.AddTernary(Negate(out), a, b);
  solver_.AddTernary(Negate(out), Negate(a), Negate(b));
  solver_.AddTernary(out, Negate(a), b);
  solver_.AddTernary(out, a, Negate(b));
  return out;
}

Lit BitBlaster::MuxGate(Lit sel, Lit a, Lit b) {
  if (sel == TrueLit()) {
    return a;
  }
  if (sel == FalseLit()) {
    return b;
  }
  if (a == b) {
    return a;
  }
  return OrGate(AndGate(sel, a), AndGate(Negate(sel), b));
}

std::vector<Lit> BitBlaster::Adder(const std::vector<Lit>& a, const std::vector<Lit>& b,
                                   Lit carry_in) {
  const size_t w = a.size();
  std::vector<Lit> sum(w);
  Lit carry = carry_in;
  for (size_t i = 0; i < w; ++i) {
    const Lit axb = XorGate(a[i], b[i]);
    sum[i] = XorGate(axb, carry);
    // carry' = (a & b) | (carry & (a ^ b)).
    carry = OrGate(AndGate(a[i], b[i]), AndGate(carry, axb));
  }
  return sum;
}

std::vector<Lit> BitBlaster::Negated(const std::vector<Lit>& a) {
  std::vector<Lit> inverted(a.size());
  for (size_t i = 0; i < a.size(); ++i) {
    inverted[i] = Negate(a[i]);
  }
  std::vector<Lit> zero(a.size(), FalseLit());
  return Adder(inverted, zero, TrueLit());  // ~a + 1.
}

Lit BitBlaster::EqualBits(const std::vector<Lit>& a, const std::vector<Lit>& b) {
  Lit all = TrueLit();
  for (size_t i = 0; i < a.size(); ++i) {
    all = AndGate(all, Negate(XorGate(a[i], b[i])));
  }
  return all;
}

Lit BitBlaster::SignedLess(const std::vector<Lit>& a, const std::vector<Lit>& b,
                           bool or_equal) {
  // a < b  <=>  (a - b) produces "negative" considering overflow:
  // less = (sign_a & ~sign_b) | ((sign_a == sign_b) & sign_diff).
  const size_t w = a.size();
  const std::vector<Lit> diff = Adder(a, Negated(b), FalseLit());
  const Lit sign_a = a[w - 1];
  const Lit sign_b = b[w - 1];
  const Lit sign_d = diff[w - 1];
  const Lit same_sign = Negate(XorGate(sign_a, sign_b));
  const Lit less =
      OrGate(AndGate(sign_a, Negate(sign_b)), AndGate(same_sign, sign_d));
  if (!or_equal) {
    return less;
  }
  return OrGate(less, EqualBits(a, b));
}

Lit BitBlaster::NonZero(const std::vector<Lit>& a) {
  Lit any = FalseLit();
  for (const Lit bit : a) {
    any = OrGate(any, bit);
  }
  return any;
}

std::vector<Lit> BitBlaster::BoolToVec(Lit bit) {
  std::vector<Lit> out(static_cast<size_t>(pool_.width()), FalseLit());
  out[0] = bit;
  return out;
}

const std::vector<Var>& BitBlaster::VarBits(int var_id) {
  const auto id = static_cast<size_t>(var_id);
  if (var_bits_.size() <= id) {
    var_bits_.resize(std::max(id + 1, static_cast<size_t>(pool_.num_vars())));
  }
  if (var_bits_[id].empty()) {
    std::vector<Var> bits(static_cast<size_t>(pool_.width()));
    for (auto& bit : bits) {
      bit = solver_.NewVar();
    }
    var_bits_[id] = std::move(bits);
  }
  return var_bits_[id];
}

int64_t BitBlaster::ModelValueOf(int var_id) {
  const auto& bits = VarBits(var_id);
  uint64_t value = 0;
  for (size_t i = 0; i < bits.size(); ++i) {
    if (solver_.ModelValue(bits[i])) {
      value |= 1ULL << i;
    }
  }
  return pool_.SignExtend(value);
}

std::vector<Var> BitBlaster::EncodingCone(ExprRef ref) {
  if (cone_stamp_.size() < pool_.size()) {
    cone_stamp_.resize(pool_.size(), 0);
  }
  if (++cone_epoch_ == 0) {  // Wrapped: stale stamps could alias the new epoch.
    std::fill(cone_stamp_.begin(), cone_stamp_.end(), 0);
    cone_epoch_ = 1;
  }
  std::vector<Var> cone;
  std::vector<ExprRef>& stack = cone_stack_;
  stack.assign(1, ref);
  while (!stack.empty()) {
    const ExprRef r = stack.back();
    stack.pop_back();
    if (cone_stamp_[static_cast<size_t>(r)] == cone_epoch_) {
      continue;
    }
    cone_stamp_[static_cast<size_t>(r)] = cone_epoch_;
    if (static_cast<size_t>(r) < cache_.size()) {
      for (const Lit lit : cache_[static_cast<size_t>(r)]) {
        cone.push_back(LitVar(lit));
      }
      // Interior Tseitin auxiliaries of this node's first encoding.
      const auto [lo, hi] = encode_range_[static_cast<size_t>(r)];
      for (Var v = lo; v < hi; ++v) {
        cone.push_back(v);
      }
    }
    const ExprNode& node = pool_.node(r);
    if (node.op == ExprOp::kVar &&
        static_cast<size_t>(node.var_id) < var_bits_.size()) {
      for (const Var v : var_bits_[static_cast<size_t>(node.var_id)]) {
        cone.push_back(v);
      }
    }
    for (const ExprRef child : {node.a, node.b, node.c}) {
      if (child != kNoExpr) {
        stack.push_back(child);
      }
    }
  }
  std::sort(cone.begin(), cone.end());
  cone.erase(std::unique(cone.begin(), cone.end()), cone.end());
  return cone;
}

const std::vector<Lit>& BitBlaster::Encode(ExprRef ref) {
  if (cache_.size() < pool_.size()) {
    cache_.resize(pool_.size());
    encode_range_.resize(pool_.size(), {0, 0});
  }
  if (!cache_[static_cast<size_t>(ref)].empty()) {
    return cache_[static_cast<size_t>(ref)];
  }
  // Record the solver variables allocated while encoding this node (interior
  // Tseitin auxiliaries included; nested child ranges overlap harmlessly) —
  // EncodingCone needs them all.
  const Var range_lo = static_cast<Var>(solver_.num_vars());
  const ExprNode& node = pool_.node(ref);
  const size_t w = static_cast<size_t>(pool_.width());
  std::vector<Lit> out;
  switch (node.op) {
    case ExprOp::kConst: {
      out.resize(w);
      const uint64_t value = static_cast<uint64_t>(node.imm);
      for (size_t i = 0; i < w; ++i) {
        out[i] = (value >> i) & 1 ? TrueLit() : FalseLit();
      }
      break;
    }
    case ExprOp::kVar: {
      const auto& bits = VarBits(node.var_id);
      out.resize(w);
      for (size_t i = 0; i < w; ++i) {
        out[i] = MakeLit(bits[i], false);
      }
      break;
    }
    case ExprOp::kAdd:
      out = Adder(Encode(node.a), Encode(node.b), FalseLit());
      break;
    case ExprOp::kSub: {
      const std::vector<Lit> a = Encode(node.a);
      const std::vector<Lit> b = Encode(node.b);
      std::vector<Lit> inverted(b.size());
      for (size_t i = 0; i < b.size(); ++i) {
        inverted[i] = Negate(b[i]);
      }
      out = Adder(a, inverted, TrueLit());
      break;
    }
    case ExprOp::kMul: {
      // Shift-and-add multiplier.
      const std::vector<Lit> a = Encode(node.a);
      const std::vector<Lit> b = Encode(node.b);
      std::vector<Lit> acc(w, FalseLit());
      for (size_t i = 0; i < w; ++i) {
        // partial = (a << i) gated by b[i].
        std::vector<Lit> partial(w, FalseLit());
        for (size_t j = i; j < w; ++j) {
          partial[j] = AndGate(a[j - i], b[i]);
        }
        acc = Adder(acc, partial, FalseLit());
      }
      out = acc;
      break;
    }
    case ExprOp::kNeg:
      out = Negated(Encode(node.a));
      break;
    case ExprOp::kNot: {
      const std::vector<Lit> a = Encode(node.a);
      out.resize(w);
      for (size_t i = 0; i < w; ++i) {
        out[i] = Negate(a[i]);
      }
      break;
    }
    case ExprOp::kAnd:
    case ExprOp::kOr:
    case ExprOp::kXor: {
      const std::vector<Lit> a = Encode(node.a);
      const std::vector<Lit> b = Encode(node.b);
      out.resize(w);
      for (size_t i = 0; i < w; ++i) {
        out[i] = node.op == ExprOp::kAnd  ? AndGate(a[i], b[i])
                 : node.op == ExprOp::kOr ? OrGate(a[i], b[i])
                                          : XorGate(a[i], b[i]);
      }
      break;
    }
    case ExprOp::kShl:
    case ExprOp::kShr: {
      // Barrel shifter over log2(w) mux stages using the low shift bits.
      const std::vector<Lit> a = Encode(node.a);
      const std::vector<Lit> s = Encode(node.b);
      std::vector<Lit> current = a;
      size_t stages = 0;
      while ((1ULL << stages) < w) {
        ++stages;
      }
      for (size_t stage = 0; stage < stages; ++stage) {
        const size_t amount = 1ULL << stage;
        std::vector<Lit> shifted(w, FalseLit());
        for (size_t i = 0; i < w; ++i) {
          if (node.op == ExprOp::kShl) {
            if (i >= amount) {
              shifted[i] = current[i - amount];
            }
          } else {
            if (i + amount < w) {
              shifted[i] = current[i + amount];
            }
          }
        }
        std::vector<Lit> next(w);
        for (size_t i = 0; i < w; ++i) {
          next[i] = MuxGate(s[stage], shifted[i], current[i]);
        }
        current = std::move(next);
      }
      out = current;
      break;
    }
    case ExprOp::kEq:
      out = BoolToVec(EqualBits(Encode(node.a), Encode(node.b)));
      break;
    case ExprOp::kNe:
      out = BoolToVec(Negate(EqualBits(Encode(node.a), Encode(node.b))));
      break;
    case ExprOp::kSlt:
      out = BoolToVec(SignedLess(Encode(node.a), Encode(node.b), /*or_equal=*/false));
      break;
    case ExprOp::kSle:
      out = BoolToVec(SignedLess(Encode(node.a), Encode(node.b), /*or_equal=*/true));
      break;
    case ExprOp::kBoolNot:
      out = BoolToVec(Negate(NonZero(Encode(node.a))));
      break;
    case ExprOp::kIte: {
      const Lit sel = NonZero(Encode(node.a));
      const std::vector<Lit> b = Encode(node.b);
      const std::vector<Lit> c = Encode(node.c);
      out.resize(w);
      for (size_t i = 0; i < w; ++i) {
        out[i] = MuxGate(sel, b[i], c[i]);
      }
      break;
    }
  }
  assert(out.size() == w);
  encode_range_[static_cast<size_t>(ref)] = {range_lo,
                                             static_cast<Var>(solver_.num_vars())};
  cache_[static_cast<size_t>(ref)] = std::move(out);
  return cache_[static_cast<size_t>(ref)];
}

void BitBlaster::AssertTrue(ExprRef ref) {
  const std::vector<Lit> bits = Encode(ref);
  std::vector<Lit> clause;
  clause.reserve(bits.size());
  for (const Lit bit : bits) {
    if (bit == TrueLit()) {
      return;  // Trivially satisfied.
    }
    if (bit != FalseLit()) {
      clause.push_back(bit);
    }
  }
  solver_.AddClause(std::move(clause));  // Empty clause => UNSAT, as desired.
}

void BitBlaster::AssertTrueUnder(Lit act, ExprRef ref) {
  const std::vector<Lit> bits = Encode(ref);
  std::vector<Lit> clause;
  clause.reserve(bits.size() + 1);
  clause.push_back(Negate(act));
  for (const Lit bit : bits) {
    if (bit == TrueLit()) {
      return;  // act → true: vacuous, no clause needed.
    }
    if (bit != FalseLit()) {
      clause.push_back(bit);
    }
  }
  // All bits false leaves {¬act}: assuming `act` is then immediately UNSAT.
  solver_.AddClause(std::move(clause));
}

void BitBlaster::AssertFalse(ExprRef ref) {
  const std::vector<Lit> bits = Encode(ref);
  for (const Lit bit : bits) {
    if (bit == TrueLit()) {
      solver_.AddClause({});  // Unsatisfiable.
      return;
    }
    if (bit != FalseLit()) {
      solver_.AddUnit(Negate(bit));
    }
  }
}

}  // namespace symx
