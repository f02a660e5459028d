// Tseitin bit-blasting of symbolic bitvector expressions into CNF.
//
// Each ExprRef encodes to a vector of W SAT literals (LSB first). Gate
// clauses are emitted on demand and cached per ExprRef, so shared subterms
// (the ExprPool hash-conses) cost one encoding.
#ifndef SRC_SYMEXEC_BITBLAST_H_
#define SRC_SYMEXEC_BITBLAST_H_

#include <utility>
#include <vector>

#include "src/symexec/expr.h"
#include "src/symexec/sat.h"

namespace symx {

class BitBlaster {
 public:
  BitBlaster(const ExprPool& pool, SatSolver& solver);

  // Returns the literal vector (width() lits, LSB first) for `ref`,
  // emitting gate clauses into the solver as needed.
  const std::vector<Lit>& Encode(ExprRef ref);

  // Asserts that `ref` is truthy (at least one bit set).
  void AssertTrue(ExprRef ref);
  // Asserts that `ref` is zero.
  void AssertFalse(ExprRef ref);
  // Asserts act → (ref truthy): the constraint holds only in queries that
  // assume `act`. Gate clauses for `ref` are still emitted ungated (they
  // define fresh Tseitin variables, so they are globally satisfiable); only
  // the final "some bit is set" clause is conditioned on `act`. This is the
  // activation-literal scheme the incremental executor uses to keep one
  // persistent solver across a whole path exploration.
  void AssertTrueUnder(Lit act, ExprRef ref);

  // The SAT variables backing symbolic variable `var_id` (allocated lazily
  // when first encoded). Used for projected model counting.
  const std::vector<Var>& VarBits(int var_id);
  // True if `var_id` already has SAT variables (i.e. some encoded expression
  // mentioned it). Never allocates.
  bool HasVarBits(int var_id) const {
    return static_cast<size_t>(var_id) < var_bits_.size() &&
           !var_bits_[static_cast<size_t>(var_id)].empty();
  }

  // Reads the W-bit value of symbolic variable `var_id` out of the solver's
  // model (sign-extended). Must be called after a kSat result.
  int64_t ModelValueOf(int var_id);

  // All SAT variables underlying `ref`'s encoding: the bits of every
  // mentioned symbolic variable plus every Tseitin auxiliary in the
  // expression DAG (shared subterms included once). `ref` must already be
  // encoded. Sorted and deduplicated — the decision set the incremental
  // executor hands SatSolver::Solve so each query only searches over its own
  // constraints' cone. The visited set is epoch-stamped scratch, so a call
  // costs the size of `ref`'s DAG, not of the whole pool.
  std::vector<Var> EncodingCone(ExprRef ref);

 private:
  Lit TrueLit();
  Lit FalseLit() { return Negate(TrueLit()); }
  Lit NewGate();
  // out <-> a & b.
  Lit AndGate(Lit a, Lit b);
  Lit OrGate(Lit a, Lit b);
  Lit XorGate(Lit a, Lit b);
  // out <-> ite(sel, a, b).
  Lit MuxGate(Lit sel, Lit a, Lit b);
  std::vector<Lit> Adder(const std::vector<Lit>& a, const std::vector<Lit>& b, Lit carry_in);
  std::vector<Lit> Negated(const std::vector<Lit>& a);
  Lit EqualBits(const std::vector<Lit>& a, const std::vector<Lit>& b);
  // Signed a < b.
  Lit SignedLess(const std::vector<Lit>& a, const std::vector<Lit>& b, bool or_equal);
  Lit NonZero(const std::vector<Lit>& a);
  std::vector<Lit> BoolToVec(Lit bit);

  const ExprPool& pool_;
  SatSolver& solver_;
  // Dense encode cache indexed by ExprRef (refs are small dense ints from
  // the hash-consing pool); an empty vector means "not yet encoded" (every
  // real encoding has width() >= 2 literals). Grown lazily so the pool may
  // gain expressions between top-level Encode calls; within one Encode the
  // pool is const, so no resize happens mid-recursion and returned
  // references stay valid.
  std::vector<std::vector<Lit>> cache_;
  // Solver vars allocated during each node's first encoding (half-open
  // range), covering interior Tseitin auxiliaries that never surface in any
  // cache entry. Indexed like cache_.
  std::vector<std::pair<Var, Var>> encode_range_;
  std::vector<std::vector<Var>> var_bits_;  // Indexed by var_id; empty = none.
  // EncodingCone's epoch-stamped visited set (indexed by ExprRef) and stack.
  std::vector<uint32_t> cone_stamp_;
  uint32_t cone_epoch_ = 0;
  std::vector<ExprRef> cone_stack_;
  Lit true_lit_ = -1;
};

}  // namespace symx

#endif  // SRC_SYMEXEC_BITBLAST_H_
