#include "src/dataflow/intervals.h"

#include <algorithm>
#include <deque>

#include "src/lang/ir_walk.h"
#include "src/support/fault_injection.h"

namespace dataflow {
namespace {

bool IsInf(int64_t v) { return v == Interval::kMin || v == Interval::kMax; }

// --- Direction-aware saturating bound arithmetic ------------------------------
//
// The sentinel encoding is positional: kMin means -infinity only in a *lower*
// bound and kMax means +infinity only in an *upper* bound; on the opposite
// side each is the genuine extreme constant (Const(INT64_MIN) is the interval
// [kMin, kMin] whose hi really is INT64_MIN). The original helpers ignored the
// position and short-circuited both sentinels symmetrically, which made e.g.
// AddI(Const(INT64_MIN), Const(5)) collapse to [kMin, kMin] — an interval that
// *excludes* the true sum INT64_MIN + 5. The fixed helpers below treat the
// sentinel of their own side as infinite and everything else as an exact
// value; a genuine overflow saturates toward the overflow's own sign, which
// keeps containment on both sides (a lower bound that saturates to kMax still
// reads "at least kMax"; an upper bound that saturates to kMin reads "at most
// kMin").

// Add feeding a lower bound: only kMin is infinite.
int64_t SatAddLo(int64_t a, int64_t b) {
  if (a == Interval::kMin || b == Interval::kMin) {
    return Interval::kMin;
  }
  int64_t out;
  if (__builtin_add_overflow(a, b, &out)) {
    return a > 0 ? Interval::kMax : Interval::kMin;
  }
  return out;
}

// Add feeding an upper bound: only kMax is infinite.
int64_t SatAddHi(int64_t a, int64_t b) {
  if (a == Interval::kMax || b == Interval::kMax) {
    return Interval::kMax;
  }
  int64_t out;
  if (__builtin_add_overflow(a, b, &out)) {
    return a > 0 ? Interval::kMax : Interval::kMin;
  }
  return out;
}

// Negated upper bound feeding a lower bound: -(+inf) = -inf, and the genuine
// constant INT64_MIN negates to 2^63 which saturates to "at least kMax".
int64_t NegLo(int64_t hi_bound) {
  if (hi_bound == Interval::kMax) {
    return Interval::kMin;
  }
  if (hi_bound == Interval::kMin) {
    return Interval::kMax;
  }
  return -hi_bound;
}

// Negated lower bound feeding an upper bound: -(-inf) = +inf; the genuine
// constant INT64_MAX negates exactly (INT64_MIN + 1 fits).
int64_t NegHi(int64_t lo_bound) {
  if (lo_bound == Interval::kMin) {
    return Interval::kMax;
  }
  return -lo_bound;
}

int64_t NarrowLo(__int128 v) {
  if (v < static_cast<__int128>(Interval::kMin)) {
    return Interval::kMin;
  }
  if (v > static_cast<__int128>(Interval::kMax)) {
    return Interval::kMax;
  }
  return static_cast<int64_t>(v);
}

int64_t NarrowHi(__int128 v) {
  if (v > static_cast<__int128>(Interval::kMax)) {
    return Interval::kMax;
  }
  if (v < static_cast<__int128>(Interval::kMin)) {
    return Interval::kMin;
  }
  return static_cast<int64_t>(v);
}

}  // namespace

Interval Join(const Interval& a, const Interval& b) {
  if (a.bottom) {
    return b;
  }
  if (b.bottom) {
    return a;
  }
  return {std::min(a.lo, b.lo), std::max(a.hi, b.hi), false};
}

Interval Meet(const Interval& a, const Interval& b) {
  if (a.bottom || b.bottom) {
    return Interval::Bottom();
  }
  return Interval::Range(std::max(a.lo, b.lo), std::min(a.hi, b.hi));
}

Interval Widen(const Interval& older, const Interval& newer) {
  if (older.bottom) {
    return newer;
  }
  if (newer.bottom) {
    return older;
  }
  Interval out = older;
  if (newer.lo < older.lo) {
    out.lo = Interval::kMin;
  }
  if (newer.hi > older.hi) {
    out.hi = Interval::kMax;
  }
  return out;
}

Interval AddI(const Interval& a, const Interval& b) {
  if (a.bottom || b.bottom) {
    return Interval::Bottom();
  }
  return {SatAddLo(a.lo, b.lo), SatAddHi(a.hi, b.hi), false};
}

Interval NegI(const Interval& a) {
  if (a.bottom) {
    return a;
  }
  return {NegLo(a.hi), NegHi(a.lo), false};
}

Interval SubI(const Interval& a, const Interval& b) {
  // Direct subtraction rather than AddI(a, NegI(b)): negation maps the
  // genuine constant kMin+1 to kMax, which the hi position then reads as
  // +inf, losing a finite bound the difference actually has. Computing the
  // bound differences in __int128 keeps exactly what the constant-interval
  // algebra keeps, preserving the cross-domain bijection.
  if (a.bottom || b.bottom) {
    return Interval::Bottom();
  }
  const int64_t lo =
      (a.lo == Interval::kMin || b.hi == Interval::kMax)
          ? Interval::kMin
          : NarrowLo(static_cast<__int128>(a.lo) - b.hi);
  const int64_t hi =
      (a.hi == Interval::kMax || b.lo == Interval::kMin)
          ? Interval::kMax
          : NarrowHi(static_cast<__int128>(a.hi) - b.lo);
  return {lo, hi, false};
}

Interval MulI(const Interval& a, const Interval& b) {
  if (a.bottom || b.bottom) {
    return Interval::Bottom();
  }
  // Corner products in __int128 with pseudo-infinities at ±2^63: one past
  // the genuine extremes, so a sentinel (infinite) bound and the genuine
  // extreme constant stay distinguishable and products of true infinities
  // always land outside int64 and saturate. |corner| <= 2^126 fits __int128.
  constexpr __int128 kInf128 = static_cast<__int128>(1) << 63;
  const __int128 xs[2] = {a.lo == Interval::kMin ? -kInf128 : static_cast<__int128>(a.lo),
                          a.hi == Interval::kMax ? kInf128 : static_cast<__int128>(a.hi)};
  const __int128 ys[2] = {b.lo == Interval::kMin ? -kInf128 : static_cast<__int128>(b.lo),
                          b.hi == Interval::kMax ? kInf128 : static_cast<__int128>(b.hi)};
  __int128 lo = xs[0] * ys[0];
  __int128 hi = lo;
  for (const __int128 x : xs) {
    for (const __int128 y : ys) {
      const __int128 p = x * y;
      lo = std::min(lo, p);
      hi = std::max(hi, p);
    }
  }
  return {NarrowLo(lo), NarrowHi(hi), false};
}

Interval DivI(const Interval& a, const Interval& b) {
  if (a.bottom || b.bottom) {
    return Interval::Bottom();
  }
  if (IsInf(a.lo) || IsInf(a.hi) || IsInf(b.lo) || IsInf(b.hi)) {
    return Interval::Top();
  }
  // Truncated division is monotone in both operands only while the divisor
  // keeps one sign, so evaluate the positive and negative divisor parts
  // separately; a part clipped to ±1 also covers the old "straddling"
  // extremes (x/1 = x, x/-1 = -x). Zero is a fault, not a value (the caller
  // refines the divisor first). All bounds are finite here (the IsInf
  // check above) so the int64 divisions cannot overflow.
  std::vector<int64_t> corners;
  if (b.hi >= 1) {
    for (const int64_t x : {a.lo, a.hi}) {
      for (const int64_t y : {std::max<int64_t>(b.lo, 1), b.hi}) {
        corners.push_back(x / y);
      }
    }
  }
  if (b.lo <= -1) {
    for (const int64_t x : {a.lo, a.hi}) {
      for (const int64_t y : {b.lo, std::min<int64_t>(b.hi, -1)}) {
        corners.push_back(x / y);
      }
    }
  }
  if (corners.empty()) {
    return Interval::Bottom();  // Divisor interval is exactly {0}.
  }
  return {*std::min_element(corners.begin(), corners.end()),
          *std::max_element(corners.begin(), corners.end()), false};
}

Interval RemI(const Interval& a, const Interval& b) {
  if (a.bottom || b.bottom) {
    return Interval::Bottom();
  }
  if (IsInf(b.lo) || IsInf(b.hi)) {
    return Interval::Top();
  }
  // |a % b| < max(|b.lo|, |b.hi|); sign follows the dividend. Both bounds
  // are finite after the IsInf check, so std::abs is safe.
  const int64_t mag = std::max(std::abs(b.lo), std::abs(b.hi));
  if (mag == 0) {
    return Interval::Bottom();
  }
  Interval out = Interval::Range(-(mag - 1), mag - 1);
  if (a.lo >= 0) {
    out = Meet(out, Interval::Range(0, Interval::kMax));
  }
  if (a.hi <= 0) {
    out = Meet(out, Interval::Range(Interval::kMin, 0));
  }
  return out;
}

Interval FromConstantInterval(const support::ConstantInterval& ci) {
  if (ci.is_empty()) {
    return Interval::Bottom();
  }
  return Interval::Range(ci.min_defined ? ci.min : Interval::kMin,
                         ci.max_defined ? ci.max : Interval::kMax);
}

support::ConstantInterval ToConstantInterval(const Interval& iv) {
  if (iv.bottom) {
    return support::ConstantInterval::Empty();
  }
  support::ConstantInterval ci;
  if (iv.lo != Interval::kMin) {
    ci.min = iv.lo;
    ci.min_defined = true;
  }
  if (iv.hi != Interval::kMax) {
    ci.max = iv.hi;
    ci.max_defined = true;
  }
  return ci;
}

namespace {

// --- Value domains ------------------------------------------------------------
//
// The analyzer below is one template shared by both DataflowMode values;
// only the value domain differs. Reference mode keeps the original sentinel
// Interval; engine mode stores support::ConstantInterval values and runs the
// new algebra. Engine values are kept *normalised* (a defined bound sitting
// exactly on an int64 extreme is converted to an undefined side), which makes
// the sentinel<->flags mapping a bijection under which every operation pair
// below is equal — so both modes produce bit-identical reports by
// construction. Each domain exposes sentinel-style Lo/Hi accessors so the
// shared refinement and bounds-check logic reads identically in both modes.

struct RefDomain {
  using Value = Interval;

  static Value Top() { return Interval::Top(); }
  static Value Bottom() { return Interval::Bottom(); }
  static Value Const(int64_t v) { return Interval::Const(v); }
  static Value Range(int64_t lo, int64_t hi) { return Interval::Range(lo, hi); }
  static Value FromInterval(const Interval& iv) { return iv; }
  static Interval ToInterval(const Value& v) { return v; }

  static bool IsBottom(const Value& v) { return v.bottom; }
  static bool Contains(const Value& v, int64_t x) { return v.Contains(x); }
  static int64_t Lo(const Value& v) { return v.lo; }
  static int64_t Hi(const Value& v) { return v.hi; }

  static Value Join(const Value& a, const Value& b) { return dataflow::Join(a, b); }
  static Value Meet(const Value& a, const Value& b) { return dataflow::Meet(a, b); }
  static Value Widen(const Value& o, const Value& n) { return dataflow::Widen(o, n); }
  static Value Add(const Value& a, const Value& b) { return AddI(a, b); }
  static Value Sub(const Value& a, const Value& b) { return SubI(a, b); }
  static Value Mul(const Value& a, const Value& b) { return MulI(a, b); }
  static Value Neg(const Value& a) { return NegI(a); }
  static Value Div(const Value& a, const Value& b) { return DivI(a, b); }
  static Value Rem(const Value& a, const Value& b) { return RemI(a, b); }
};

struct CiDomain {
  using Value = support::ConstantInterval;

  // Keeps engine values inside the bijective image of the sentinel domain:
  // a defined bound on an int64 extreme carries the same information as an
  // unbounded side there, so fold it.
  static Value Normal(Value v) {
    if (v.is_empty()) {
      return support::ConstantInterval::Empty();
    }
    if (v.min_defined && v.min == INT64_MIN) {
      v.min_defined = false;
      v.min = 0;
    }
    if (v.max_defined && v.max == INT64_MAX) {
      v.max_defined = false;
      v.max = 0;
    }
    return v;
  }

  static Value Top() { return support::ConstantInterval::Everything(); }
  static Value Bottom() { return support::ConstantInterval::Empty(); }
  static Value Const(int64_t v) {
    return Normal(support::ConstantInterval::SinglePoint(v));
  }
  // Sentinel-style constructor: kMin/kMax arguments mean unbounded sides.
  static Value Range(int64_t lo, int64_t hi) {
    if (lo > hi) {
      return Bottom();
    }
    return Normal(support::ConstantInterval::Bounded(lo, hi));
  }
  static Value FromInterval(const Interval& iv) { return ToConstantInterval(iv); }
  static Interval ToInterval(const Value& v) { return FromConstantInterval(v); }

  static bool IsBottom(const Value& v) { return v.is_empty(); }
  static bool Contains(const Value& v, int64_t x) {
    return !v.is_empty() && v.Contains(x);
  }
  static int64_t Lo(const Value& v) {
    return v.min_defined ? v.min : Interval::kMin;
  }
  static int64_t Hi(const Value& v) {
    return v.max_defined ? v.max : Interval::kMax;
  }

  static Value Join(const Value& a, const Value& b) {
    return Normal(support::ConstantInterval::Union(a, b));
  }
  static Value Meet(const Value& a, const Value& b) {
    return Normal(support::ConstantInterval::Intersection(a, b));
  }
  static Value Widen(const Value& older, const Value& newer) {
    if (older.is_empty()) {
      return newer;
    }
    if (newer.is_empty()) {
      return older;
    }
    Value out = older;
    if (older.min_defined && (!newer.min_defined || newer.min < older.min)) {
      out.min_defined = false;
      out.min = 0;
    }
    if (older.max_defined && (!newer.max_defined || newer.max > older.max)) {
      out.max_defined = false;
      out.max = 0;
    }
    return out;
  }
  static Value Add(const Value& a, const Value& b) { return Normal(a + b); }
  static Value Sub(const Value& a, const Value& b) { return Normal(a - b); }
  static Value Mul(const Value& a, const Value& b) { return Normal(a * b); }
  static Value Neg(const Value& a) { return Normal(-a); }
  static Value Div(const Value& a, const Value& b) {
    if (a.is_empty() || b.is_empty()) {
      return Bottom();
    }
    // Mirror the reference coarsening: any unbounded side gives up, and a
    // {0}-only divisor means every execution faults. Within those guards the
    // ConstantInterval sign-split division computes the same corners as the
    // fixed DivI.
    if (!a.is_bounded() || !b.is_bounded()) {
      return Top();
    }
    if (b.is_single_point(0)) {
      return Bottom();
    }
    return Normal(a / b);
  }
  static Value Rem(const Value& a, const Value& b) {
    if (a.is_empty() || b.is_empty()) {
      return Bottom();
    }
    if (!b.is_bounded()) {
      return Top();
    }
    // Same magnitude bound as the reference RemI (no dividend-magnitude
    // tightening: that extra precision lives in the support algebra's
    // operator% and would break cross-mode report equality here).
    const int64_t mag = std::max(std::abs(b.min), std::abs(b.max));
    if (mag == 0) {
      return Bottom();
    }
    Value out = Range(-(mag - 1), mag - 1);
    if (a.min_defined && a.min >= 0) {
      out = Meet(out, support::ConstantInterval::BoundedBelow(0));
    }
    if (a.max_defined && a.max <= 0) {
      out = Meet(out, support::ConstantInterval::BoundedAbove(0));
    }
    return out;
  }
};

// Per-program-point abstract state.
template <typename V>
struct AbsStateT {
  std::vector<V> regs;
  std::vector<V> arrays;  // Value summary per local array.
  bool reachable = false;

  bool operator==(const AbsStateT&) const = default;
};

// A comparison definition used for branch refinement: reg = a OP b.
struct CmpDef {
  lang::BinaryOp op;
  lang::RegId a = lang::kNoReg;
  lang::RegId b = lang::kNoReg;
  int64_t const_a = 0;  // Valid when a == kNoReg.
  int64_t const_b = 0;  // Valid when b == kNoReg.
  bool valid = false;
};

bool IsComparisonOp(lang::BinaryOp op) {
  switch (op) {
    case lang::BinaryOp::kEq:
    case lang::BinaryOp::kNe:
    case lang::BinaryOp::kLt:
    case lang::BinaryOp::kLe:
    case lang::BinaryOp::kGt:
    case lang::BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

// The fixpoint analyzer, shared verbatim by both modes; `D` supplies the
// value domain (see the domain structs above).
template <typename D>
class IntervalAnalyzer {
 public:
  using V = typename D::Value;
  using AbsState = AbsStateT<V>;

  IntervalAnalyzer(const lang::IrFunction& fn, const IntervalOptions& options,
                   const CfgView* cfg)
      : fn_(fn), options_(options), cfg_(cfg) {}

  IntervalReport Run() {
    const size_t num_blocks = fn_.blocks.size();
    if (num_blocks == 0) {
      return IntervalReport{};  // No entry block to seed.
    }
    in_.assign(num_blocks, MakeBottom());
    visits_.assign(num_blocks, 0);
    ComputeCfgFacts();
    // Entry: parameters (and everything else) start at Top / zero.
    AbsState entry = MakeBottom();
    entry.reachable = true;
    for (auto& reg : entry.regs) {
      reg = D::Const(0);
    }
    for (const lang::RegId param : fn_.param_regs) {
      entry.regs[static_cast<size_t>(param)] = D::Top();
    }
    for (size_t a = 0; a < fn_.arrays.size(); ++a) {
      entry.arrays[a] = fn_.arrays[a].is_param ? D::Top() : D::Const(0);
    }
    in_[0] = entry;

    std::deque<lang::BlockId> worklist = {0};
    int iterations = 0;
    while (!worklist.empty() && ++iterations < options_.max_iterations) {
      if (options_.deadline != nullptr) {
        options_.deadline->TickOrThrow("intervals");
      }
      const lang::BlockId block = worklist.front();
      worklist.pop_front();
      AbsState out = in_[static_cast<size_t>(block)];
      if (!out.reachable) {
        continue;
      }
      CmpDefMap cmp_defs;
      TransferBlock(block, out, cmp_defs, nullptr);
      // Propagate along edges with branch refinement.
      const auto& term = fn_.blocks[static_cast<size_t>(block)].term;
      auto propagate = [&](lang::BlockId succ, const AbsState& state) {
        const auto su = static_cast<size_t>(succ);
        AbsState joined = JoinStates(in_[su], state);
        ++visits_[su];
        // Widening only at loop headers (back-edge targets): widening at
        // ordinary join blocks would erase branch refinements for no
        // termination benefit.
        if (widen_point_[su] && visits_[su] > options_.widen_after) {
          joined = WidenStates(in_[su], joined);
        }
        if (!(joined == in_[su])) {
          in_[su] = std::move(joined);
          worklist.push_back(succ);
        }
      };
      switch (term.kind) {
        case lang::TerminatorKind::kJump:
          propagate(term.target_true, out);
          break;
        case lang::TerminatorKind::kBranch: {
          AbsState true_state = out;
          AbsState false_state = out;
          RefineBranch(term.cond, cmp_defs, /*taken=*/true, true_state);
          RefineBranch(term.cond, cmp_defs, /*taken=*/false, false_state);
          if (!StateIsBottom(true_state)) {
            propagate(term.target_true, true_state);
          }
          if (!StateIsBottom(false_state)) {
            propagate(term.target_false, false_state);
          }
          break;
        }
        case lang::TerminatorKind::kReturn:
        case lang::TerminatorKind::kAbort:
          break;
      }
    }

    // Final checking pass with the stable states.
    IntervalReport report;
    if (options_.record_block_ranges) {
      report.block_entry_regs.resize(num_blocks);
    }
    for (size_t b = 0; b < num_blocks; ++b) {
      if (!in_[b].reachable) {
        continue;
      }
#ifdef CLAIR_AI_DEBUG
      std::fprintf(stderr, "bb%zu in:", b);
      for (size_t r = 0; r < in_[b].regs.size(); ++r) {
        const auto& iv = in_[b].regs[r];
        std::fprintf(stderr, " %s=[%lld,%lld]%s", fn_.reg_names[r].c_str(),
                     (long long)D::Lo(iv), (long long)D::Hi(iv),
                     D::IsBottom(iv) ? "B" : "");
      }
      std::fprintf(stderr, "\n");
#endif
      if (options_.record_block_ranges) {
        auto& regs = report.block_entry_regs[b];
        regs.reserve(in_[b].regs.size());
        for (const V& reg : in_[b].regs) {
          regs.push_back(D::ToInterval(reg));
        }
      }
      AbsState state = in_[b];
      CmpDefMap cmp_defs;
      TransferBlock(static_cast<lang::BlockId>(b), state, cmp_defs, &report);
    }
    return report;
  }

 private:
  using CmpDefMap = std::vector<CmpDef>;

  AbsState MakeBottom() const {
    AbsState state;
    state.regs.assign(static_cast<size_t>(fn_.reg_count), D::Bottom());
    state.arrays.assign(fn_.arrays.size(), D::Bottom());
    state.reachable = false;
    return state;
  }

  static bool StateIsBottom(const AbsState& state) {
    // A refinement that produced an empty interval for some register proves
    // the edge infeasible.
    for (const auto& reg : state.regs) {
      if (D::IsBottom(reg)) {
        return true;
      }
    }
    return false;
  }

  AbsState JoinStates(const AbsState& a, const AbsState& b) const {
    if (!a.reachable) {
      return b;
    }
    if (!b.reachable) {
      return a;
    }
    AbsState out = a;
    for (size_t r = 0; r < out.regs.size(); ++r) {
      out.regs[r] = D::Join(a.regs[r], b.regs[r]);
    }
    for (size_t arr = 0; arr < out.arrays.size(); ++arr) {
      out.arrays[arr] = D::Join(a.arrays[arr], b.arrays[arr]);
    }
    return out;
  }

  AbsState WidenStates(const AbsState& older, const AbsState& newer) const {
    if (!older.reachable) {
      return newer;
    }
    AbsState out = newer;
    for (size_t r = 0; r < out.regs.size(); ++r) {
      out.regs[r] = D::Widen(older.regs[r], newer.regs[r]);
    }
    for (size_t arr = 0; arr < out.arrays.size(); ++arr) {
      out.arrays[arr] = D::Widen(older.arrays[arr], newer.arrays[arr]);
    }
    return out;
  }

  // Runs the block's instructions over `state`. Records comparison
  // definitions for branch refinement, and (when `report` is non-null)
  // checks array accesses and divisions.
  void TransferBlock(lang::BlockId block, AbsState& state, CmpDefMap& cmp_defs,
                     IntervalReport* report) {
    cmp_defs.assign(static_cast<size_t>(fn_.reg_count), CmpDef{});
    for (const auto& instr : fn_.blocks[static_cast<size_t>(block)].instrs) {
      TransferInstr(instr, state, cmp_defs, report);
    }
  }

  V RegOf(const AbsState& state, lang::RegId reg) const {
    return state.regs[static_cast<size_t>(reg)];
  }

  void TransferInstr(const lang::IrInstr& instr, AbsState& state, CmpDefMap& cmp_defs,
                     IntervalReport* report) {
    auto set = [&state, &cmp_defs](lang::RegId reg, const V& value) {
      state.regs[static_cast<size_t>(reg)] = value;
      cmp_defs[static_cast<size_t>(reg)].valid = false;
    };
    switch (instr.op) {
      case lang::IrOpcode::kConst:
        set(instr.dst, D::Const(instr.imm));
        break;
      case lang::IrOpcode::kCopy:
        set(instr.dst, RegOf(state, instr.a));
        // Copies preserve the comparison shape for refinement.
        cmp_defs[static_cast<size_t>(instr.dst)] = cmp_defs[static_cast<size_t>(instr.a)];
        break;
      case lang::IrOpcode::kUnOp: {
        const V a = RegOf(state, instr.a);
        switch (instr.unary_op) {
          case lang::UnaryOp::kNeg:
            set(instr.dst, D::Neg(a));
            break;
          case lang::UnaryOp::kNot:
            set(instr.dst, D::Range(0, 1));
            break;
          default:
            set(instr.dst, D::Top());
            break;
        }
        break;
      }
      case lang::IrOpcode::kBinOp: {
        const V a = RegOf(state, instr.a);
        const V b = RegOf(state, instr.b);
        V value = D::Top();
        switch (instr.binary_op) {
          case lang::BinaryOp::kAdd:
            value = D::Add(a, b);
            break;
          case lang::BinaryOp::kSub:
            value = D::Sub(a, b);
            break;
          case lang::BinaryOp::kMul:
            value = D::Mul(a, b);
            break;
          case lang::BinaryOp::kDiv:
          case lang::BinaryOp::kRem: {
            if (report != nullptr) {
              ++report->divisions;
            }
            const bool divisor_nonzero = !D::Contains(b, 0);
            if (report != nullptr) {
              if (divisor_nonzero) {
                ++report->proven_nonzero_divisor;
              } else {
                report->findings.push_back(
                    {AiFinding::Kind::kPossibleDivByZero, fn_.name, instr.line});
              }
            }
            const V refined_divisor =
                divisor_nonzero ? b
                                : D::Join(D::Meet(b, D::Range(Interval::kMin, -1)),
                                          D::Meet(b, D::Range(1, Interval::kMax)));
            value = instr.binary_op == lang::BinaryOp::kDiv
                        ? D::Div(a, refined_divisor)
                        : D::Rem(a, refined_divisor);
            break;
          }
          case lang::BinaryOp::kEq:
          case lang::BinaryOp::kNe:
          case lang::BinaryOp::kLt:
          case lang::BinaryOp::kLe:
          case lang::BinaryOp::kGt:
          case lang::BinaryOp::kGe:
            value = D::Range(0, 1);
            break;
          case lang::BinaryOp::kAnd:
          case lang::BinaryOp::kOr:
            value = D::Range(0, 1);
            break;
          case lang::BinaryOp::kBitAnd:
            if (!D::IsBottom(a) && !D::IsBottom(b) && D::Lo(a) >= 0 && D::Lo(b) >= 0) {
              value = D::Range(0, std::min(D::Hi(a), D::Hi(b)));
            }
            break;
          case lang::BinaryOp::kBitOr:
          case lang::BinaryOp::kBitXor:
          case lang::BinaryOp::kShl:
          case lang::BinaryOp::kShr:
            value = D::Top();
            break;
        }
        set(instr.dst, value);
        if (IsComparisonOp(instr.binary_op)) {
          CmpDef def;
          def.op = instr.binary_op;
          def.a = instr.a;
          def.b = instr.b;
          def.valid = true;
          cmp_defs[static_cast<size_t>(instr.dst)] = def;
        }
        break;
      }
      case lang::IrOpcode::kLoadGlobal:
        set(instr.dst, D::Top());  // Globals are modelled as Top.
        break;
      case lang::IrOpcode::kStoreGlobal:
        break;
      case lang::IrOpcode::kArrayLoad:
      case lang::IrOpcode::kArrayStore: {
        int64_t size = 0;
        V summary = D::Top();
        if (instr.array >= 0) {
          size = fn_.arrays[static_cast<size_t>(instr.array)].size;
          summary = state.arrays[static_cast<size_t>(instr.array)];
        } else {
          size = 0;  // Global arrays: size known but values Top; look up size.
        }
        if (instr.array < 0) {
          // Global arrays carry Top values; use declared size for checking.
          // (Module reference is unavailable here; size 0 would flag every
          // access, so the caller passes module-level accesses via the
          // whole-module wrapper below. For intraprocedural runs this arm is
          // conservative.)
        }
        const V index = RegOf(state, instr.a);
        if (report != nullptr && size > 0) {
          ++report->array_accesses;
          if (!D::IsBottom(index) && D::Lo(index) >= 0 && D::Hi(index) < size) {
            ++report->proven_in_bounds;
          } else {
            report->findings.push_back(
                {AiFinding::Kind::kPossibleOutOfBounds, fn_.name, instr.line});
          }
        }
        if (instr.op == lang::IrOpcode::kArrayLoad) {
          set(instr.dst, instr.array >= 0 ? summary : D::Top());
        } else if (instr.array >= 0) {
          state.arrays[static_cast<size_t>(instr.array)] =
              D::Join(summary, RegOf(state, instr.b));
        }
        break;
      }
      case lang::IrOpcode::kCall:
        if (instr.dst != lang::kNoReg) {
          set(instr.dst, D::Top());
        }
        break;
      case lang::IrOpcode::kInput:
        set(instr.dst, D::FromInterval(options_.input_range));
        break;
      case lang::IrOpcode::kOutput:
      case lang::IrOpcode::kAssume:
        break;
    }
  }

  // Refines `state` given that register `cond` evaluated to `taken` at a
  // branch. Tries the branch block's local comparison map first (covers
  // multi-def variables compared immediately before branching), then the
  // global unique-definition resolver (covers short-circuit diamonds and
  // conditions carried through copies).
  void RefineBranch(lang::RegId cond, const CmpDefMap& cmp_defs, bool taken,
                    AbsState& state) const {
    const CmpDef& def = cmp_defs[static_cast<size_t>(cond)];
    if (def.valid) {
      RefineComparison(def.op, def.a, def.b, taken, state, /*may_write_a=*/true,
                       /*may_write_b=*/true);
      return;
    }
    RefineGlobal(cond, taken, state, /*depth=*/6);
  }

  // --- CFG facts for widening points and cross-block refinement -------------

  struct PredEdge {
    lang::BlockId pred;
    bool is_branch = false;
    bool taken = false;  // Which arm of the predecessor's branch.
  };

  void ComputeCfgFacts() {
    const size_t num_blocks = fn_.blocks.size();
    preds_.assign(num_blocks, {});
    for (size_t b = 0; b < num_blocks; ++b) {
      const auto& term = fn_.blocks[b].term;
      switch (term.kind) {
        case lang::TerminatorKind::kJump:
          preds_[static_cast<size_t>(term.target_true)].push_back(
              {static_cast<lang::BlockId>(b), false, false});
          break;
        case lang::TerminatorKind::kBranch:
          preds_[static_cast<size_t>(term.target_true)].push_back(
              {static_cast<lang::BlockId>(b), true, true});
          preds_[static_cast<size_t>(term.target_false)].push_back(
              {static_cast<lang::BlockId>(b), true, false});
          break;
        default:
          break;
      }
    }
    // Back-edge targets (u->v with rpo(u) >= rpo(v)) are the widening
    // points. Engine mode takes them from the shared CfgView (computed once
    // per function and reused by every analysis); reference mode keeps the
    // original inline recomputation. Both derive the same RPO, so the
    // widening points — and with them the whole analysis — are identical.
    if (options_.mode == DataflowMode::kEngine) {
      if (cfg_ != nullptr) {
        widen_point_ = cfg_->widen_point;
      } else {
        widen_point_ = CfgView(fn_).widen_point;
      }
    } else {
      std::vector<int> rpo_index(num_blocks, -1);
      {
        std::vector<bool> seen(num_blocks, false);
        std::vector<lang::BlockId> post;
        std::vector<std::pair<lang::BlockId, size_t>> stack = {{0, 0}};
        seen[0] = true;
        while (!stack.empty()) {
          auto& [block, child] = stack.back();
          const auto succs = fn_.Successors(block);
          if (child < succs.size()) {
            const lang::BlockId next = succs[child++];
            if (!seen[static_cast<size_t>(next)]) {
              seen[static_cast<size_t>(next)] = true;
              stack.emplace_back(next, 0);
            }
          } else {
            post.push_back(block);
            stack.pop_back();
          }
        }
        // Reverse post-order index: last-finished block (the entry) gets 0.
        for (auto it = post.rbegin(); it != post.rend(); ++it) {
          rpo_index[static_cast<size_t>(*it)] = static_cast<int>(it - post.rbegin());
        }
      }
      widen_point_.assign(num_blocks, false);
      for (size_t u = 0; u < num_blocks; ++u) {
        if (rpo_index[u] < 0) {
          continue;
        }
        for (const lang::BlockId v : fn_.Successors(static_cast<lang::BlockId>(u))) {
          if (rpo_index[static_cast<size_t>(v)] >= 0 &&
              rpo_index[u] >= rpo_index[static_cast<size_t>(v)]) {
            widen_point_[static_cast<size_t>(v)] = true;
          }
        }
      }
    }
    // Definition sites per register.
    def_count_.assign(static_cast<size_t>(fn_.reg_count), 0);
    def_block_.assign(static_cast<size_t>(fn_.reg_count), -1);
    def_instr_.assign(static_cast<size_t>(fn_.reg_count), nullptr);
    for (size_t b = 0; b < num_blocks; ++b) {
      for (const auto& instr : fn_.blocks[b].instrs) {
        const lang::RegId dst = lang::DstOf(instr);
        if (dst != lang::kNoReg) {
          ++def_count_[static_cast<size_t>(dst)];
          def_block_[static_cast<size_t>(dst)] = static_cast<lang::BlockId>(b);
          def_instr_[static_cast<size_t>(dst)] = &instr;
        }
      }
    }
    // Parameters behave like an extra definition.
    for (const lang::RegId param : fn_.param_regs) {
      ++def_count_[static_cast<size_t>(param)];
    }
  }

  bool SingleDef(lang::RegId reg) const {
    return def_count_[static_cast<size_t>(reg)] == 1 &&
           def_instr_[static_cast<size_t>(reg)] != nullptr;
  }

  // Cross-block refinement: resolves `cond` through unique definitions,
  // Truthy wrappers, copies, and the lowered short-circuit diamond (where
  // one definition is a constant that cannot produce the taken value).
  // `depth` bounds recursion through chained conditions.
  void RefineGlobal(lang::RegId cond, bool taken, AbsState& state, int depth) const {
    if (depth <= 0) {
      return;
    }
    // Collect candidate definitions able to produce `taken`.
    const lang::IrInstr* candidate = nullptr;
    int candidates = 0;
    for (const auto& block : fn_.blocks) {
      for (const auto& instr : block.instrs) {
        if (instr.dst != cond || !lang::WritesDst(instr)) {
          continue;
        }
        if (instr.op == lang::IrOpcode::kConst) {
          const bool can_produce = taken ? instr.imm != 0 : instr.imm == 0;
          if (!can_produce) {
            continue;  // This definition cannot be the live one.
          }
        }
        ++candidates;
        candidate = &instr;
      }
    }
    for (const lang::RegId param : fn_.param_regs) {
      if (param == cond) {
        ++candidates;  // Parameter value: opaque definition.
      }
    }
    if (candidates != 1 || candidate == nullptr) {
      return;
    }
    ApplyDefRefinement(*candidate, taken, state, depth);
    // Execution necessarily passed through the definition's block: fold in
    // the branch conditions along its single-predecessor chain.
    lang::BlockId block = def_block_of(*candidate);
    for (int hops = 0; hops < 4 && block >= 0; ++hops) {
      const auto& edges = preds_[static_cast<size_t>(block)];
      if (edges.size() != 1) {
        break;
      }
      const PredEdge& edge = edges[0];
      if (edge.is_branch) {
        const auto& term = fn_.blocks[static_cast<size_t>(edge.pred)].term;
        RefineGlobal(term.cond, edge.taken, state, depth - 1);
      }
      block = edge.pred;
    }
  }

  lang::BlockId def_block_of(const lang::IrInstr& instr) const {
    for (size_t b = 0; b < fn_.blocks.size(); ++b) {
      for (const auto& candidate : fn_.blocks[b].instrs) {
        if (&candidate == &instr) {
          return static_cast<lang::BlockId>(b);
        }
      }
    }
    return -1;
  }

  void ApplyDefRefinement(const lang::IrInstr& def, bool taken, AbsState& state,
                          int depth) const {
    switch (def.op) {
      case lang::IrOpcode::kCopy:
        RefineGlobal(def.a, taken, state, depth - 1);
        return;
      case lang::IrOpcode::kUnOp:
        if (def.unary_op == lang::UnaryOp::kNot) {
          RefineGlobal(def.a, !taken, state, depth - 1);
        }
        return;
      case lang::IrOpcode::kBinOp:
        break;
      default:
        return;
    }
    // Truthy wrapper: (x != 0) / (x == 0).
    const auto is_zero_const = [this](lang::RegId reg) {
      return SingleDef(reg) &&
             def_instr_[static_cast<size_t>(reg)]->op == lang::IrOpcode::kConst &&
             def_instr_[static_cast<size_t>(reg)]->imm == 0;
    };
    if (def.binary_op == lang::BinaryOp::kNe && is_zero_const(def.b)) {
      RefineGlobal(def.a, taken, state, depth - 1);
      return;
    }
    if (def.binary_op == lang::BinaryOp::kEq && is_zero_const(def.b)) {
      RefineGlobal(def.a, !taken, state, depth - 1);
      return;
    }
    if (!IsComparisonOp(def.binary_op)) {
      return;
    }
    // A real comparison: refine its operands (only single-assignment
    // registers may be written — multi-def variables could have changed
    // between the comparison and the branch).
    RefineComparison(def.binary_op, def.a, def.b, taken, state,
                     /*may_write_a=*/SingleDef(def.a),
                     /*may_write_b=*/SingleDef(def.b));
  }

  // Shared comparison-refinement arithmetic; used by both the local (same
  // block, always writable) and global (single-def operands only) paths.
  void RefineComparison(lang::BinaryOp op, lang::RegId reg_a, lang::RegId reg_b,
                        bool taken, AbsState& state, bool may_write_a,
                        bool may_write_b) const {
    if (!taken) {
      switch (op) {
        case lang::BinaryOp::kEq:
          op = lang::BinaryOp::kNe;
          break;
        case lang::BinaryOp::kNe:
          op = lang::BinaryOp::kEq;
          break;
        case lang::BinaryOp::kLt:
          op = lang::BinaryOp::kGe;
          break;
        case lang::BinaryOp::kLe:
          op = lang::BinaryOp::kGt;
          break;
        case lang::BinaryOp::kGt:
          op = lang::BinaryOp::kLe;
          break;
        case lang::BinaryOp::kGe:
          op = lang::BinaryOp::kLt;
          break;
        default:
          return;
      }
    }
    V& ia = state.regs[static_cast<size_t>(reg_a)];
    V& ib = state.regs[static_cast<size_t>(reg_b)];
    V new_a = ia;
    V new_b = ib;
    // Endpoint nudges go through the direction-aware saturating helpers:
    // `lo + 1` stays -inf when lo is the sentinel, `hi - 1` stays +inf.
    switch (op) {
      case lang::BinaryOp::kEq: {
        const V met = D::Meet(ia, ib);
        new_a = met;
        new_b = met;
        break;
      }
      case lang::BinaryOp::kNe:
        if (!D::IsBottom(ib) && D::Lo(ib) == D::Hi(ib) && D::Contains(ia, D::Lo(ib))) {
          if (D::Lo(ia) == D::Lo(ib)) {
            new_a = D::Range(SatAddLo(D::Lo(ia), 1), D::Hi(ia));
          } else if (D::Hi(ia) == D::Lo(ib)) {
            new_a = D::Range(D::Lo(ia), SatAddHi(D::Hi(ia), -1));
          }
        }
        break;
      case lang::BinaryOp::kLt:
        new_a = D::Meet(ia, D::Range(Interval::kMin, SatAddHi(D::Hi(ib), -1)));
        new_b = D::Meet(ib, D::Range(SatAddLo(D::Lo(ia), 1), Interval::kMax));
        break;
      case lang::BinaryOp::kLe:
        new_a = D::Meet(ia, D::Range(Interval::kMin, D::Hi(ib)));
        new_b = D::Meet(ib, D::Range(D::Lo(ia), Interval::kMax));
        break;
      case lang::BinaryOp::kGt:
        new_a = D::Meet(ia, D::Range(SatAddLo(D::Lo(ib), 1), Interval::kMax));
        new_b = D::Meet(ib, D::Range(Interval::kMin, SatAddHi(D::Hi(ia), -1)));
        break;
      case lang::BinaryOp::kGe:
        new_a = D::Meet(ia, D::Range(D::Lo(ib), Interval::kMax));
        new_b = D::Meet(ib, D::Range(Interval::kMin, D::Hi(ia)));
        break;
      default:
        return;
    }
    if (may_write_a) {
      ia = new_a;
    }
    if (may_write_b) {
      ib = new_b;
    }
  }

  const lang::IrFunction& fn_;
  IntervalOptions options_;
  const CfgView* cfg_ = nullptr;  // Shared CFG facts (engine mode); not owned.
  std::vector<AbsState> in_;
  std::vector<int> visits_;
  std::vector<std::vector<PredEdge>> preds_;
  std::vector<bool> widen_point_;
  std::vector<int> def_count_;
  std::vector<lang::BlockId> def_block_;
  std::vector<const lang::IrInstr*> def_instr_;
};

}  // namespace

IntervalReport AnalyzeIntervals(const lang::IrFunction& fn, const IntervalOptions& options,
                                const CfgView* cfg) {
  if (options.mode == DataflowMode::kReference) {
    return IntervalAnalyzer<RefDomain>(fn, options, cfg).Run();
  }
  return IntervalAnalyzer<CiDomain>(fn, options, cfg).Run();
}

std::vector<double> IntervalRow(const lang::IrFunction& fn, const IntervalOptions& options) {
  const uint64_t before = options.deadline != nullptr ? options.deadline->steps_used() : 0;
  const IntervalReport report = AnalyzeIntervals(fn, options);  // CfgView built per mode inside.
  long long possible_oob = 0;
  long long possible_div0 = 0;
  for (const auto& finding : report.findings) {
    if (finding.kind == AiFinding::Kind::kPossibleOutOfBounds) {
      ++possible_oob;
    } else {
      ++possible_div0;
    }
  }
  const uint64_t after = options.deadline != nullptr ? options.deadline->steps_used() : 0;
  return {static_cast<double>(report.array_accesses),
          static_cast<double>(report.proven_in_bounds),
          static_cast<double>(report.divisions),
          static_cast<double>(report.proven_nonzero_divisor),
          static_cast<double>(possible_oob),
          static_cast<double>(possible_div0),
          static_cast<double>(after - before)};
}

metrics::FeatureVector IntervalFeatures(const lang::IrModule& module,
                                        const IntervalOptions& options) {
  return IntervalFeaturesFromRows(
      module, [&options](const lang::IrFunction& fn) { return IntervalRow(fn, options); });
}

metrics::FeatureVector IntervalFeaturesFromRows(const lang::IrModule& module,
                                                const FunctionRowFn& row_of) {
  const auto& faults = support::FaultInjector::Global();
  if (faults.enabled()) {
    faults.MaybeFail(support::FaultSite::kIntervals, lang::ModuleFingerprint(module));
  }
  metrics::FeatureVector fv;
  long long accesses = 0;
  long long proven = 0;
  long long divisions = 0;
  long long proven_div = 0;
  long long possible_oob = 0;
  long long possible_div0 = 0;
  for (const auto& fn : module.functions) {
    const std::vector<double> row = row_of(fn);
    accesses += static_cast<long long>(row[0]);
    proven += static_cast<long long>(row[1]);
    divisions += static_cast<long long>(row[2]);
    proven_div += static_cast<long long>(row[3]);
    possible_oob += static_cast<long long>(row[4]);
    possible_div0 += static_cast<long long>(row[5]);
  }
  fv.Set("ai.array_accesses", static_cast<double>(accesses));
  fv.Set("ai.proven_in_bounds", static_cast<double>(proven));
  fv.Set("ai.possible_oob", static_cast<double>(possible_oob));
  fv.Set("ai.divisions", static_cast<double>(divisions));
  fv.Set("ai.proven_nonzero_divisor", static_cast<double>(proven_div));
  fv.Set("ai.possible_div0", static_cast<double>(possible_div0));
  if (accesses > 0) {
    fv.Set("ai.unproven_access_ratio",
           static_cast<double>(possible_oob) / static_cast<double>(accesses));
  }
  return fv;
}

}  // namespace dataflow
