// A compact CDCL SAT solver (watched literals, 1-UIP learning, VSIDS-style
// activities, Luby restarts) with MiniSat's storage layout: one flat clause
// arena, binary clauses resolved inline from their watchers, and a
// per-literal value table. Sized for the path-condition queries the
// symbolic executor generates — thousands of variables, not millions.
//
// The solver is incremental: variables and clauses may be added after a
// Solve call (AddClause backtracks to the root level and re-simplifies
// against the permanent trail), and learned clauses persist across calls, so
// a sequence of related queries — the executor's path-condition prefixes,
// gated behind activation literals and selected per call via `assumptions` —
// amortizes both the CNF encoding and the conflict analysis work.
#ifndef SRC_SYMEXEC_SAT_H_
#define SRC_SYMEXEC_SAT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace symx {

// Literal encoding: var v (0-based) positive = 2v, negative = 2v+1.
using Lit = int32_t;
using Var = int32_t;

inline Lit MakeLit(Var var, bool negated) { return 2 * var + (negated ? 1 : 0); }
inline Var LitVar(Lit lit) { return lit >> 1; }
inline bool LitNegated(Lit lit) { return (lit & 1) != 0; }
inline Lit Negate(Lit lit) { return lit ^ 1; }

enum class SatResult : uint8_t { kSat, kUnsat, kUnknown };

class SatSolver {
 public:
  SatSolver() = default;

  // Returns the new variable's index.
  Var NewVar();
  int num_vars() const { return static_cast<int>(vardata_.size()); }

  // Adds a clause (empty clause makes the instance trivially UNSAT).
  void AddClause(std::vector<Lit> clause);
  // Adds a clause while keeping the installed assumption trail from the last
  // Solve call (only search decisions are dropped; AddClause by contrast
  // backtracks to root and forfeits the prefix). Simplifies against
  // root-level facts only. Built for model enumeration: blocking the model
  // just found and re-Solving under the same assumptions skips re-installing
  // and re-propagating the whole assumption prefix for every model.
  void AddBlockingClause(std::vector<Lit> clause);
  void AddUnit(Lit lit) { AddClause({lit}); }
  void AddBinary(Lit a, Lit b) { AddClause({a, b}); }
  void AddTernary(Lit a, Lit b, Lit c) { AddClause({a, b, c}); }

  // Solves under optional assumptions. `max_conflicts` bounds effort
  // (0 = unlimited); exceeding it yields kUnknown.
  //
  // `decision_vars`, when non-null, restricts decisions to that set: the
  // search stops (kSat) once every listed variable is assigned without
  // conflict, leaving the rest of the instance undecided. This is sound only
  // when every clause over the unrestricted variables is extendable to a full
  // model from ANY conflict-free assignment of the restricted set — which
  // holds for the executor's instances: unrestricted clauses are either
  // Tseitin gate definitions (functionally consistent: evaluate the gate DAG
  // bottom-up), activation clauses {¬act, bits} of constraints this query
  // does not assume (satisfied by act := false; no clause mentions act
  // positively), or learned clauses (resolution-implied by the above, hence
  // satisfied by any model of them). Callers with arbitrary CNF must pass
  // nullptr. After a restricted kSat only decision-set variables have
  // meaningful model values (others read stale or false) — restricted
  // callers read back only variables they listed.
  SatResult Solve(const std::vector<Lit>& assumptions = {}, uint64_t max_conflicts = 0,
                  const std::vector<Var>* decision_vars = nullptr);

  // Model access after kSat. Variables created after the last Solve have no
  // recorded model value and read as false.
  bool ModelValue(Var var) const {
    const auto v = static_cast<size_t>(var);
    return v < model_.size() && model_[v];
  }

  // Sets the polarity PickBranchLit tries first for `var` (default positive).
  // The executor marks activation literals negative-first so decisions never
  // spuriously re-activate constraints that are not assumed in this query.
  void SetPolarity(Var var, bool positive) {
    polarity_[static_cast<size_t>(var)] = positive;
  }

  // Raises `var`'s VSIDS activity above every other variable's so the next
  // Solve branches on it first. Model enumeration boosts the projection bits
  // this way: blocking clauses are over those bits, so deciding them first
  // makes already-blocked assignments conflict shallowly instead of after a
  // deep dive through gate variables.
  void BoostActivity(Var var);

  uint64_t conflicts() const { return stats_conflicts_; }
  uint64_t decisions() const { return stats_decisions_; }
  uint64_t propagations() const { return stats_propagations_; }

  // Returns the solver to its freshly-constructed state (no variables, no
  // clauses, zeroed stats) while keeping the backing allocations of the big
  // per-variable and per-clause vectors where practical. The serving
  // scheduler recycles one solver instance across many queued explorations —
  // a Reset between explorations must leave behavior bit-identical to using
  // a brand-new SatSolver, only without the allocator churn.
  void Reset();

 private:
  // A named (non-character) value type: stores to the value table cannot
  // alias other objects, so the compiler keeps the hot loops' pointers in
  // registers across Enqueue.
  enum LBool : int8_t { kUndef = 0, kTrue = 1, kFalse = -1 };

  // Clause reference: the offset of the clause's header word in arena_.
  using CRef = int32_t;
  static constexpr CRef kNoReason = -1;

  // Clause arena (MiniSat layout): every clause is a header word
  // `size << 1 | learnt` followed by its `size` literals, packed back to back
  // in creation order, so a watch visit that must read its clause costs one
  // dependent load.
  uint32_t ClauseSize(CRef cr) const {
    return static_cast<uint32_t>(arena_[static_cast<size_t>(cr)]) >> 1;
  }
  bool ClauseLearnt(CRef cr) const { return (arena_[static_cast<size_t>(cr)] & 1) != 0; }
  Lit* ClauseLits(CRef cr) { return arena_.data() + cr + 1; }
  // Appends a clause and returns its reference.
  CRef AllocClause(const std::vector<Lit>& lits, bool learnt);

  LBool Value(Lit lit) const { return lit_value_[static_cast<size_t>(lit)]; }

  void Enqueue(Lit lit, CRef reason);
  // Returns the conflicting clause or kNoReason.
  CRef Propagate();
  // Root-level learned-clause garbage collection: drops the oldest half of
  // the long learned clauses (binary/ternary ones are kept — they encode
  // cheap, strong facts), root-simplifies what remains into a compacted
  // arena (same clause order), and rebuilds the watch lists. Keeps
  // propagation cost bounded across the tens of thousands of queries one
  // incremental exploration issues.
  void ReduceLearnedDb();
  void Analyze(CRef conflict, std::vector<Lit>& learnt, int& backtrack_level);
  void Backtrack(int level);
  Lit PickBranchLit();
  void BumpVar(Var var);
  void DecayActivities();
  void AttachClause(CRef cr);

  // VSIDS order heap (binary max-heap over activity, ties broken toward the
  // lower variable index so decisions are deterministic). Keeps PickBranchLit
  // at O(log V) per decision — essential for the incremental solver, whose
  // variable count grows across a whole path exploration. `order_` covers all
  // variables; `query_order_` is rebuilt per restricted Solve call and covers
  // only that call's decision_vars.
  struct VarOrderHeap {
    std::vector<Var> heap;
    std::vector<int> index;  // Position of each var in `heap`, or -1.
  };
  // Replaces `h`'s contents with `vars` and heapifies bottom-up (O(n)). Each
  // Solve call builds its active heap this way instead of maintaining both
  // heaps eagerly across calls — heap churn outside the active query was the
  // dominant cost of the incremental solver.
  void HeapBuild(VarOrderHeap& h, std::vector<Var> vars);
  void HeapSiftUp(VarOrderHeap& h, size_t i);
  void HeapSiftDown(VarOrderHeap& h, size_t i);
  void HeapInsert(VarOrderHeap& h, Var var);
  Var HeapPopMax(VarOrderHeap& h);

  // Watch-list entry: the watched clause plus a cached "blocker" literal
  // from it (MiniSat-style). If the blocker is already true the clause is
  // satisfied and Propagate skips it without touching the clause memory —
  // most of the persistent instance's clauses are satisfied or irrelevant in
  // any given query, so this avoids the dominant cache-miss traffic.
  // Binary clauses are tagged: their blocker is always the other literal, so
  // the blocker's value alone decides satisfied, unit or conflict.
  struct Watcher {
    int32_t tagged;  // CRef << 1 | binary.
    Lit blocker;
    CRef cref() const { return tagged >> 1; }
    bool binary() const { return (tagged & 1) != 0; }
  };

  // Per-variable search bookkeeping, packed so Enqueue and Analyze touch one
  // cache line per variable.
  struct VarData {
    CRef reason;  // kNoReason for decisions, assumptions and root units.
    int level;
  };

  std::vector<Lit> arena_;
  std::vector<std::vector<Watcher>> watches_;  // Indexed by watched literal.
  // Value of every literal (both polarities kept in step by Enqueue and
  // Backtrack), so Value() is one load with no negation.
  std::vector<LBool> lit_value_;
  std::vector<VarData> vardata_;
  std::vector<Lit> trail_;
  std::vector<int> trail_lim_;
  // Assumptions currently installed as decision levels 1..installed_.size()
  // (level i+1 holds installed_[i]). Survives a kSat exit so the next Solve
  // can keep the shared prefix; cleared whenever the trail returns to root.
  std::vector<Lit> installed_;
  size_t propagate_head_ = 0;
  std::vector<double> activity_;
  VarOrderHeap order_;        // Decision candidates over all variables.
  VarOrderHeap query_order_;  // Candidates for the current restricted query.
  // Restricted-query membership: decision_stamp_[v] == decision_epoch_ iff
  // `v` is in the current query's decision set. Epoch bumping makes per-query
  // set setup O(|decision_vars|) with no clearing pass.
  std::vector<uint32_t> decision_stamp_;
  uint32_t decision_epoch_ = 0;
  bool restricted_ = false;
  bool solving_ = false;  // Inside Solve's search loop (gates heap upkeep).
  std::vector<bool> polarity_;  // Branch-first polarity per variable.
  double activity_inc_ = 1.0;
  double max_activity_ = 0.0;  // Running maximum of activity_ (post-rescale).
  std::vector<bool> model_;
  std::vector<uint8_t> seen_;  // Scratch for Analyze.
  bool trivially_unsat_ = false;
  size_t num_learnt_ = 0;
  size_t learnt_limit_ = 2048;  // Grows 1.5x after each reduction.
  uint64_t stats_conflicts_ = 0;
  uint64_t stats_decisions_ = 0;
  uint64_t stats_propagations_ = 0;
};

}  // namespace symx

#endif  // SRC_SYMEXEC_SAT_H_
