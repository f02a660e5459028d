// Symbolic bitvector expressions.
//
// The symbolic executor builds these as it interprets the IR; the solver
// bit-blasts them to CNF. Expressions are hash-consed into an ExprPool so a
// path condition is a set of small integer handles, and structurally equal
// subterms encode to the same CNF variables.
//
// Width model: all MiniC values are W-bit two's-complement (W =
// ExprPool::width(), default 32). The concrete interpreter uses 64-bit
// arithmetic; for corpus programs (small constants) the semantics coincide —
// the symexec tests cross-validate every path against the interpreter.
#ifndef SRC_SYMEXEC_EXPR_H_
#define SRC_SYMEXEC_EXPR_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/lang/ast.h"

namespace symx {

using ExprRef = int32_t;
inline constexpr ExprRef kNoExpr = -1;

enum class ExprOp : uint8_t {
  kConst,  // value in `imm`
  kVar,    // symbolic input; `var_id` indexes the pool's variable table
  kAdd,
  kSub,
  kMul,
  kNeg,
  kNot,     // Bitwise complement.
  kAnd,     // Bitwise.
  kOr,      // Bitwise.
  kXor,
  kShl,     // Shift amount taken modulo width.
  kShr,     // Logical shift right (MiniC >> on non-negative corpus values).
  kEq,      // Result is 0/1 in W bits.
  kNe,
  kSlt,     // Signed less-than, 0/1 result.
  kSle,
  kBoolNot,  // !x : 0/1 result.
  kIte,      // a ? b : c  (a is a 0/1 value).
};

struct ExprNode {
  ExprOp op = ExprOp::kConst;
  int64_t imm = 0;      // kConst.
  int32_t var_id = -1;  // kVar.
  ExprRef a = kNoExpr;
  ExprRef b = kNoExpr;
  ExprRef c = kNoExpr;
  // Saturating tree size (ignores DAG sharing); used by the executor to
  // concretize runaway expressions before they make bit-blasting explode.
  uint32_t tree_size = 1;
};

class ExprPool {
 public:
  explicit ExprPool(int width = 32);

  int width() const { return width_; }
  uint64_t Mask() const { return width_ == 64 ? ~0ULL : ((1ULL << width_) - 1); }

  ExprRef Const(int64_t value);
  // Creates a fresh symbolic variable. `name` is for diagnostics.
  ExprRef FreshVar(const std::string& name);
  int num_vars() const { return static_cast<int>(var_names_.size()); }
  const std::string& VarName(int var_id) const { return var_names_[static_cast<size_t>(var_id)]; }

  ExprRef Unary(ExprOp op, ExprRef a);
  ExprRef Binary(ExprOp op, ExprRef a, ExprRef b);
  ExprRef Ite(ExprRef cond, ExprRef then_e, ExprRef else_e);

  // Builds the expression for a MiniC binary operator. Division/modulo by a
  // symbolic divisor is over-approximated with a fresh variable (the executor
  // has already forked on divisor==0); `made_fresh` reports that.
  ExprRef FromBinaryOp(lang::BinaryOp op, ExprRef a, ExprRef b, bool& made_fresh);
  ExprRef FromUnaryOp(lang::UnaryOp op, ExprRef a);

  // Boolean coercion: x != 0 as a 0/1 expression.
  ExprRef Truthy(ExprRef a);
  // Logical negation of a truthy value.
  ExprRef Falsy(ExprRef a);

  // Number of constructions the normalizing simplifier resolved without
  // interning a new node: constant folds, identity/annihilator rules (x&0,
  // x|0, x^x, x*1, shift-by-0, ...), double negation, self-comparisons, and
  // Ite with a constant condition or equal arms. Each avoided node is CNF the
  // bit-blaster never has to emit; many branch conditions collapse to
  // constants and never reach the SAT solver at all.
  uint64_t simplifier_folds() const { return simplifier_folds_; }

  const ExprNode& node(ExprRef ref) const { return nodes_[static_cast<size_t>(ref)]; }
  uint32_t TreeSize(ExprRef ref) const { return nodes_[static_cast<size_t>(ref)].tree_size; }
  size_t size() const { return nodes_.size(); }

  // Concrete evaluation under an assignment of variable values (sign-extended
  // from W bits into int64). Used by the sampling counter and by tests.
  int64_t Eval(ExprRef ref, const std::vector<int64_t>& var_values) const;

  // True if `ref` contains no kVar nodes.
  bool IsConcrete(ExprRef ref) const;

  std::string ToString(ExprRef ref) const;

  // Sign-extends a W-bit value into int64.
  int64_t SignExtend(uint64_t value) const;

 private:
  ExprRef Intern(const ExprNode& node);
  // Constant folding for fully-concrete operands.
  bool TryFold(const ExprNode& node, int64_t& out) const;

  int width_;
  uint64_t simplifier_folds_ = 0;
  std::vector<ExprNode> nodes_;
  std::vector<std::string> var_names_;
  std::unordered_map<uint64_t, std::vector<ExprRef>> intern_;
  mutable std::vector<int64_t> eval_cache_;
  mutable std::vector<uint32_t> eval_stamp_;
  mutable uint32_t eval_epoch_ = 0;
  mutable std::vector<ExprRef> eval_stack_;  // Reused across Eval calls.
};

}  // namespace symx

#endif  // SRC_SYMEXEC_EXPR_H_
