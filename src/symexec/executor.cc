#include "src/symexec/executor.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <numeric>

#include "src/metrics/callgraph.h"
#include "src/support/deadline.h"
#include "src/support/fault_injection.h"
#include "src/support/strings.h"
#include "src/support/thread_pool.h"
#include "src/symexec/bitblast.h"
#include "src/symexec/counter.h"
#include "src/symexec/range_eval.h"

namespace symx {

const char* VulnKindName(VulnKind kind) {
  switch (kind) {
    case VulnKind::kOutOfBounds:
      return "out-of-bounds";
    case VulnKind::kDivByZero:
      return "division-by-zero";
  }
  return "<bad>";
}

double SymExecResult::MaxExploitFraction() const {
  double best = 0.0;
  for (const auto& vuln : vulns) {
    best = std::max(best, vuln.exploit_fraction);
  }
  return best;
}

namespace {

struct Frame {
  const lang::IrFunction* fn = nullptr;
  std::vector<ExprRef> regs;
  std::vector<std::vector<ExprRef>> arrays;
  lang::BlockId block = 0;
  size_t instr_index = 0;
  lang::RegId caller_dst = lang::kNoReg;  // Where the return value lands.
};

// One recycled SatSolver per worker thread. An exploration leases the
// session for its lifetime and Reset()s the solver before use, so
// back-to-back explorations on the same thread (a scheduler draining its
// queue, SymexFeatures fanning entries onto the pool) re-grow into memory
// the solver already owns. `in_use` guards nested Explore calls on one
// thread — the inner exploration falls back to an owned instance.
struct SolverSession {
  SatSolver solver;
  bool in_use = false;
  bool ever_used = false;
};

SolverSession& ThreadSolverSession() {
  static thread_local SolverSession session;
  return session;
}

std::atomic<uint64_t> g_solver_session_reuses{0};

SatSolver& AcquireSolver(const SymExecOptions& options,
                         std::unique_ptr<SatSolver>& owned, bool& leased) {
  if (options.reuse_solver_session) {
    SolverSession& session = ThreadSolverSession();
    if (!session.in_use) {
      session.in_use = true;
      if (session.ever_used) {
        session.solver.Reset();
        g_solver_session_reuses.fetch_add(1, std::memory_order_relaxed);
      }
      session.ever_used = true;
      leased = true;
      return session.solver;
    }
  }
  owned = std::make_unique<SatSolver>();
  return *owned;
}

struct PathState {
  std::vector<Frame> frames;
  std::vector<ExprRef> globals;
  std::vector<std::vector<ExprRef>> global_arrays;
  std::vector<ExprRef> pc;  // Path condition: conjunction of truthy exprs.
  // Disjoint value sets implied by `pc`, keyed by subexpression: the range
  // domain's over-approximation of the same conjunction, used to decide new
  // branch deltas without the solver. Forked (copied) with the path.
  RangeRefinements ranges;
  uint64_t steps = 0;
};

class Explorer {
 public:
  Explorer(const lang::IrModule& module, const SymExecOptions& options)
      : module_(module),
        options_(options),
        pool_(options.width),
        rng_(options.rng_seed),
        range_eval_(pool_),
        inc_solver_(AcquireSolver(options, owned_solver_, leased_session_)),
        inc_blaster_(pool_, inc_solver_),
        deadline_(options.watchdog_steps),
        // Read only by armed solver faults, so it is not computed otherwise.
        fault_key_(support::FaultInjector::Global().enabled()
                       ? support::FaultKeyMix(lang::ModuleFingerprint(module),
                                              options.rng_seed)
                       : 0) {
    // Solver-site fault injection is keyed by the deterministic query index;
    // pruning changes which queries exist, which would shift every verdict.
    // When the solver site is armed the robustness matrix must see the exact
    // reference query stream, so the optimisation stands down there. Faults
    // at other sites never observe individual queries and keep pruning on.
    if (support::FaultInjector::Global().rate(support::FaultSite::kSolver) >
        0.0) {
      options_.range_pruning = false;
    }
  }

  ~Explorer() {
    if (leased_session_) {
      ThreadSolverSession().in_use = false;
    }
  }

  SymExecResult Run(const std::string& entry) {
    const lang::IrFunction* fn = module_.FindFunction(entry);
    if (fn == nullptr) {
      return std::move(result_);
    }
    PathState initial;
    for (const auto& g : module_.globals) {
      if (g.type.is_array) {
        initial.global_arrays.emplace_back(static_cast<size_t>(g.array_size), pool_.Const(0));
        initial.globals.push_back(pool_.Const(0));
      } else {
        initial.global_arrays.emplace_back();
        initial.globals.push_back(pool_.Const(g.init_value));
      }
    }
    initial.frames.push_back(MakeFrame(*fn, /*symbolic_params=*/true));
    worklist_.push_back(std::move(initial));

    while (!worklist_.empty()) {
      if (result_.paths_explored >= options_.max_paths) {
        result_.path_limit_hit = true;
        break;
      }
      PathState state = std::move(worklist_.back());
      worklist_.pop_back();
      RunPath(std::move(state));
    }
    FinishVulns();
    result_.simplifier_folds = pool_.simplifier_folds();
    return std::move(result_);
  }

 private:
  Frame MakeFrame(const lang::IrFunction& fn, bool symbolic_params) {
    Frame frame;
    frame.fn = &fn;
    frame.regs.assign(static_cast<size_t>(fn.reg_count), pool_.Const(0));
    frame.arrays.reserve(fn.arrays.size());
    for (const auto& arr : fn.arrays) {
      std::vector<ExprRef> cells(static_cast<size_t>(arr.size), pool_.Const(0));
      if (arr.is_param && symbolic_params) {
        for (size_t i = 0; i < cells.size(); ++i) {
          cells[i] = NewInputVar(arr.name + "_" + std::to_string(i));
        }
      }
      frame.arrays.push_back(std::move(cells));
    }
    if (symbolic_params) {
      for (const lang::RegId reg : fn.param_regs) {
        frame.regs[static_cast<size_t>(reg)] =
            NewInputVar("arg_" + fn.reg_names[static_cast<size_t>(reg)]);
      }
    }
    return frame;
  }

  ExprRef NewInputVar(const std::string& name) {
    ++result_.symbolic_inputs;
    return pool_.FreshVar(name);
  }

  // Concretizes runaway expressions: values whose tree grows past the cap
  // are replaced by unconstrained fresh variables (an over-approximation —
  // the same trade KLEE makes when expressions become solver-hostile).
  ExprRef Bounded(ExprRef value) {
    if (pool_.TreeSize(value) > options_.max_expr_nodes) {
      return pool_.FreshVar("havoc");
    }
    return value;
  }

  // Adds `c` to `pc` with light subsumption: identical constraints are
  // dropped, and one-sided bounds (const vs expr comparisons) replace any
  // weaker bound of the same shape. This keeps loop-generated path
  // conditions like {0<n, 1<n, 2<n, ...} at a single constraint.
  void AddConstraint(std::vector<ExprRef>& pc, ExprRef c) {
    const ExprNode& node = pool_.node(c);
    if (node.op == ExprOp::kConst) {
      if (node.imm != 0) {
        return;  // Trivially true.
      }
      pc.push_back(c);  // Trivially false: caller's feasibility check fires.
      return;
    }
    for (const ExprRef existing : pc) {
      if (existing == c) {
        return;  // Hash-consing makes structural equality pointer equality.
      }
    }
    // Bound shape: (op, x, k, lower?) where the constraint reads
    // "x > k" / "x >= k" (lower bound) or "x < k" / "x <= k" (upper bound).
    struct Bound {
      ExprRef x = kNoExpr;
      int64_t limit = 0;  // Normalised: lower => x >= limit, upper => x <= limit.
      bool is_lower = false;
      bool valid = false;
    };
    auto classify = [this](ExprRef r) {
      Bound bound;
      const ExprNode& n = pool_.node(r);
      if (n.op != ExprOp::kSlt && n.op != ExprOp::kSle) {
        return bound;
      }
      const ExprNode& na = pool_.node(n.a);
      const ExprNode& nb = pool_.node(n.b);
      if (na.op == ExprOp::kConst && nb.op != ExprOp::kConst) {
        // k < x  =>  x >= k+1;  k <= x  =>  x >= k.
        bound.x = n.b;
        bound.is_lower = true;
        bound.limit = n.op == ExprOp::kSlt ? na.imm + 1 : na.imm;
        bound.valid = true;
      } else if (nb.op == ExprOp::kConst && na.op != ExprOp::kConst) {
        // x < k  =>  x <= k-1;  x <= k  =>  x <= k.
        bound.x = n.a;
        bound.is_lower = false;
        bound.limit = n.op == ExprOp::kSlt ? nb.imm - 1 : nb.imm;
        bound.valid = true;
      }
      return bound;
    };
    const Bound incoming = classify(c);
    if (incoming.valid) {
      for (auto& existing : pc) {
        const Bound old = classify(existing);
        if (!old.valid || old.x != incoming.x || old.is_lower != incoming.is_lower) {
          continue;
        }
        const bool new_is_tighter = incoming.is_lower ? incoming.limit >= old.limit
                                                      : incoming.limit <= old.limit;
        if (new_is_tighter) {
          existing = c;  // The new bound implies the old one.
        }
        return;  // Either replaced or already implied.
      }
    }
    pc.push_back(c);
  }

  // The activation literal gating constraint `c` in the persistent solver:
  // act → (c truthy). Encoded at most once per constraint; feasibility of a
  // path-condition prefix is then Solve(assumptions = {act(c) for c in pc}),
  // and a retired branch simply stops assuming its literal.
  Lit ActivationLit(ExprRef c) {
    if (activation_.size() < pool_.size()) {
      activation_.resize(pool_.size(), -1);
      cones_.resize(pool_.size());
    }
    if (activation_[static_cast<size_t>(c)] != -1) {
      return activation_[static_cast<size_t>(c)];
    }
    const Var var = inc_solver_.NewVar();
    // Negative-first: decisions must not re-activate constraints this query
    // does not assume (they would only make the instance harder).
    inc_solver_.SetPolarity(var, false);
    const Lit act = MakeLit(var, false);
    inc_blaster_.AssertTrueUnder(act, c);
    activation_[static_cast<size_t>(c)] = act;
    cones_[static_cast<size_t>(c)] = inc_blaster_.EncodingCone(c);
    return act;
  }

  // Feasibility of `pc` (== the path's prior condition plus `delta`), with a
  // range-domain precheck. `refs` over-approximates the models of the prior
  // condition, so a kFalse verdict for `delta` means every model falsifies it
  // (pc is UNSAT), and a kTrue verdict means delta is implied — pc is
  // equisatisfiable with the prior condition, which is feasible by the path
  // invariant. Either way the SAT query is skipped and counted as pruned;
  // kUnknown falls through to the solver. Callers must pass the refinements
  // from *before* learning `delta` (refining first would decide trivially).
  bool FeasibleDelta(const RangeRefinements& refs, ExprRef delta,
                     const std::vector<ExprRef>& pc) {
    if (options_.range_pruning) {
      switch (range_eval_.DecideTruthy(delta, refs)) {
        case support::Tristate::kTrue:
          ++result_.range_pruned;
          return true;
        case support::Tristate::kFalse:
          ++result_.range_pruned;
          return false;
        case support::Tristate::kUnknown:
          break;
      }
    }
    return Feasible(pc);
  }

  // Learns `delta` (just asserted into a path condition) into `refs`.
  void Refine(ExprRef delta, RangeRefinements& refs) {
    if (options_.range_pruning) {
      range_eval_.RefineTrue(delta, refs);
    }
  }

  bool Feasible(const std::vector<ExprRef>& pc) {
    // Solution cache (KLEE-style): a cached model that satisfies every
    // constraint proves satisfiability without a solver call. Variables the
    // model does not cover evaluate as 0, which is still a valid witness.
    for (const auto& model : model_cache_) {
      bool all = true;
      for (const ExprRef c : pc) {
        if (pool_.Eval(c, model) == 0) {
          all = false;
          break;
        }
      }
      if (all) {
        ++result_.model_reuse_hits;
        return true;
      }
    }
    if (result_.solver_queries >= options_.max_solver_queries) {
      return true;  // Budget exhausted: assume feasible (sound for search).
    }
    ++result_.solver_queries;
    // Robustness injection site: per-query granularity, keyed by the
    // exploration's module×entry key and the deterministic query index.
    support::FaultInjector::Global().MaybeFail(
        support::FaultSite::kSolver,
        support::FaultKeyMix(fault_key_, result_.solver_queries),
        options_.fault_salt);
    SatResult sat;
    std::vector<int64_t> model;
    if (options_.incremental_solver) {
      std::vector<Lit> assumptions;
      assumptions.reserve(pc.size());
      for (const ExprRef c : pc) {
        assumptions.push_back(ActivationLit(c));
      }
      const std::vector<Var> decision_vars = ConeUnion(pc);
      const uint64_t conflicts_before = inc_solver_.conflicts();
      sat = inc_solver_.Solve(assumptions, options_.solver_conflict_budget,
                              &decision_vars);
      result_.sat_conflicts += inc_solver_.conflicts() - conflicts_before;
      if (sat == SatResult::kSat) {
        // Every variable in `pc` was materialised when its constraint was
        // encoded, so the model covers all mentioned vars.
        const std::vector<int> used = UsedVars(pc);
        model.assign(static_cast<size_t>(pool_.num_vars()), 0);
        for (const int var_id : used) {
          model[static_cast<size_t>(var_id)] = inc_blaster_.ModelValueOf(var_id);
        }
      }
    } else {
      // One-shot reference oracle: fresh instance, full re-encode per query.
      SatSolver solver;
      BitBlaster blaster(pool_, solver);
      for (const ExprRef c : pc) {
        blaster.AssertTrue(c);
      }
      sat = solver.Solve({}, options_.solver_conflict_budget);
      result_.sat_conflicts += solver.conflicts();
      if (sat == SatResult::kSat) {
        // Encoding the constraints materialised the bits of every variable
        // they mention, so the model can be read back directly.
        const std::vector<int> used = UsedVars(pc);
        model.assign(static_cast<size_t>(pool_.num_vars()), 0);
        for (const int var_id : used) {
          model[static_cast<size_t>(var_id)] = blaster.ModelValueOf(var_id);
        }
      }
    }
    if (sat == SatResult::kUnsat) {
      return false;
    }
    if (sat == SatResult::kSat) {
      // Ring-buffer eviction: overwrite the oldest slot in place instead of
      // erase(begin()), which shifted every remaining entry on each insert.
      // The feasibility scan above is any-match, so slot order is irrelevant.
      if (model_cache_.size() < kModelCacheSize) {
        model_cache_.push_back(std::move(model));
      } else {
        model_cache_[model_cache_next_] = std::move(model);
        model_cache_next_ = (model_cache_next_ + 1) % kModelCacheSize;
      }
    }
    return true;  // kSat, or kUnknown treated as feasible.
  }

  // Union of the encoding cones of `pc`'s constraints (each already encoded
  // via ActivationLit). Restricting decisions to this set keeps per-query
  // cost tracking the current path condition, not everything the persistent
  // solver has accumulated; retired constraints' variables stay undecided.
  // The epoch stamp dedups the union without a per-query clearing pass.
  std::vector<Var> ConeUnion(const std::vector<ExprRef>& pc) {
    if (cone_stamp_.size() < static_cast<size_t>(inc_solver_.num_vars())) {
      cone_stamp_.resize(static_cast<size_t>(inc_solver_.num_vars()), 0);
    }
    ++cone_epoch_;
    std::vector<Var> decision_vars;
    for (const ExprRef c : pc) {
      for (const Var v : cones_[static_cast<size_t>(c)]) {
        if (cone_stamp_[static_cast<size_t>(v)] != cone_epoch_) {
          cone_stamp_[static_cast<size_t>(v)] = cone_epoch_;
          decision_vars.push_back(v);
        }
      }
    }
    return decision_vars;
  }

  // Projected model enumeration on the persistent solver. Same contract as
  // CountExact, but the trigger condition's encoding (already emitted for the
  // feasibility queries) is reused instead of re-blasted into a fresh solver,
  // and learned clauses carry over between enumerations. Blocking clauses are
  // gated behind a per-enumeration session literal: {~session, ~model bits},
  // assumed true while enumerating, then retired with a root-level unit
  // ~session — which permanently satisfies them, so the next learned-DB sweep
  // reclaims the dead clauses. The projection bits lie inside the trigger
  // condition's encoding cone (projection = UsedVars(trigger_pc)), so the
  // cone-restricted search decides every blocking clause.
  CountResult CountExactIncremental(const std::vector<ExprRef>& trigger_pc,
                                    const std::vector<int>& projection,
                                    uint64_t cap, uint64_t budget) {
    CountResult result;
    std::vector<Lit> assumptions;
    assumptions.reserve(trigger_pc.size() + 1);
    for (const ExprRef c : trigger_pc) {
      assumptions.push_back(ActivationLit(c));
    }
    const Var session_var = inc_solver_.NewVar();
    inc_solver_.SetPolarity(session_var, false);
    const Lit session = MakeLit(session_var, false);
    assumptions.push_back(session);
    std::vector<Var> proj_bits;
    for (const int var_id : projection) {
      const auto& bits = inc_blaster_.VarBits(var_id);
      proj_bits.insert(proj_bits.end(), bits.begin(), bits.end());
    }
    const std::vector<Var> decision_vars = ConeUnion(trigger_pc);
    // Branch on projection bits first: every blocking clause is over them,
    // so deciding them early keeps conflicts against blocked models shallow
    // (a fresh per-enumeration solver gets this ordering for free; the
    // persistent one has to be nudged past its accumulated activities).
    for (const Var bit : proj_bits) {
      inc_solver_.BoostActivity(bit);
    }
    const uint64_t conflicts_before = inc_solver_.conflicts();
    for (;;) {
      ++result.sat_calls;
      const SatResult sat = inc_solver_.Solve(assumptions, budget, &decision_vars);
      if (sat == SatResult::kUnknown) {
        result.exact = false;
        break;
      }
      if (sat == SatResult::kUnsat) {
        break;
      }
      ++result.models;
      if (result.models >= cap) {
        result.exact = false;
        break;
      }
      if (proj_bits.empty()) {
        break;  // No projection variables: the count is 0 or 1.
      }
      std::vector<Lit> blocking;
      blocking.reserve(proj_bits.size() + 1);
      blocking.push_back(Negate(session));
      for (const Var bit : proj_bits) {
        blocking.push_back(MakeLit(bit, inc_solver_.ModelValue(bit)));
      }
      // Trail-preserving add: the installed assumption prefix (the whole
      // propagated trigger condition) survives, so the next Solve resumes
      // instead of re-installing it for every enumerated model.
      inc_solver_.AddBlockingClause(std::move(blocking));
    }
    result.conflicts = inc_solver_.conflicts() - conflicts_before;
    inc_solver_.AddUnit(Negate(session));
    return result;
  }

  // Variables mentioned anywhere in `constraints`, ascending. The visited
  // set is epoch-stamped scratch (like ConeUnion's), so a call costs the
  // size of the constraints' DAG, not of the whole pool.
  std::vector<int> UsedVars(const std::vector<ExprRef>& constraints) {
    if (visit_stamp_.size() < pool_.size()) {
      visit_stamp_.resize(pool_.size(), 0);
    }
    ++visit_epoch_;
    std::vector<ExprRef>& stack = visit_stack_;
    stack.assign(constraints.begin(), constraints.end());
    std::vector<int> out;
    while (!stack.empty()) {
      const ExprRef ref = stack.back();
      stack.pop_back();
      if (visit_stamp_[static_cast<size_t>(ref)] == visit_epoch_) {
        continue;
      }
      visit_stamp_[static_cast<size_t>(ref)] = visit_epoch_;
      const ExprNode& node = pool_.node(ref);
      if (node.op == ExprOp::kVar) {
        out.push_back(node.var_id);
      }
      for (const ExprRef child : {node.a, node.b, node.c}) {
        if (child != kNoExpr) {
          stack.push_back(child);
        }
      }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

  // Estimated fraction of the input space satisfying `trigger_pc`.
  // Variables not mentioned by the constraints cancel between numerator and
  // denominator, so counting is projected onto the used variables only.
  double TriggerFraction(const std::vector<ExprRef>& trigger_pc,
                         const RangeRefinements& refs) {
    const std::vector<int> used = UsedVars(trigger_pc);
    if (used.empty()) {
      // Fully concrete (and known feasible): triggers on every input.
      return 1.0;
    }
    const int bits = pool_.width() * static_cast<int>(used.size());
    if (result_.solver_queries >= options_.max_solver_queries) {
      return EstimateFraction(pool_, trigger_pc, rng_, options_.exploit_sample_trials);
    }
    if (options_.range_pruning) {
      // Variable-separable trigger conditions count as a product of set
      // cardinalities, skipping model enumeration. The two outcomes mirror
      // the enumerating path exactly: an exact count below the cap returns
      // the same ldexp value without touching the RNG, and a count at or
      // over the cap returns max(sampled, ldexp(cap, -bits)) with the same
      // EstimateFraction trial consumption — so the sampling stream stays
      // aligned with reference mode across subsequent vulnerabilities.
      // (`refs` documents provenance; the decomposition re-derives the sets
      // from trigger_pc itself, which is the exact condition to count.)
      (void)refs;
      std::vector<std::pair<int32_t, support::IntervalSet>> var_sets;
      if (range_eval_.DecomposeExact(trigger_pc, var_sets)) {
        unsigned __int128 count = 1;
        bool saturated = false;
        for (const auto& vs : var_sets) {
          bool sat = false;
          const uint64_t card = vs.second.Cardinality(&sat);
          saturated = saturated || sat;
          count *= card;
          if (count > static_cast<unsigned __int128>(UINT64_MAX)) {
            saturated = true;
            count = UINT64_MAX;
          }
        }
        ++result_.range_pruned;
        if (!saturated && count < options_.exploit_exact_cap) {
          return std::ldexp(static_cast<double>(static_cast<uint64_t>(count)),
                            -bits);
        }
        const double lower_bound = std::ldexp(
            static_cast<double>(options_.exploit_exact_cap), -bits);
        const double sampled = EstimateFraction(pool_, trigger_pc, rng_,
                                                options_.exploit_sample_trials);
        return std::max(sampled, lower_bound);
      }
    }
    const CountResult counted =
        options_.incremental_solver
            ? CountExactIncremental(trigger_pc, used, options_.exploit_exact_cap,
                                    options_.solver_conflict_budget)
            : CountExact(pool_, trigger_pc, used, options_.exploit_exact_cap,
                         options_.solver_conflict_budget);
    result_.solver_queries += counted.sat_calls;
    result_.sat_conflicts += counted.conflicts;
    support::FaultInjector::Global().MaybeFail(
        support::FaultSite::kSolver,
        support::FaultKeyMix(fault_key_, result_.solver_queries),
        options_.fault_salt);
    const double lower_bound = std::ldexp(static_cast<double>(counted.models), -bits);
    if (counted.exact) {
      return lower_bound;
    }
    const double sampled =
        EstimateFraction(pool_, trigger_pc, rng_, options_.exploit_sample_trials);
    return std::max(sampled, lower_bound);
  }

  void RecordVuln(VulnKind kind, const Frame& frame, int line,
                  const std::vector<ExprRef>& trigger_pc,
                  const RangeRefinements& refs) {
    const auto key = std::make_pair(kind, std::make_pair(frame.fn->name, line));
    auto& entry = vuln_map_[key];
    ++entry.paths;
    entry.fraction = std::max(entry.fraction, TriggerFraction(trigger_pc, refs));
  }

  void FinishVulns() {
    for (const auto& [key, info] : vuln_map_) {
      VulnSite site;
      site.kind = key.first;
      site.function = key.second.first;
      site.line = key.second.second;
      site.exploit_fraction = info.fraction;
      site.paths = info.paths;
      result_.vulns.push_back(std::move(site));
    }
    std::sort(result_.vulns.begin(), result_.vulns.end(), [](const VulnSite& a,
                                                             const VulnSite& b) {
      if (a.function != b.function) {
        return a.function < b.function;
      }
      if (a.line != b.line) {
        return a.line < b.line;
      }
      return static_cast<int>(a.kind) < static_cast<int>(b.kind);
    });
  }

  enum class StepResult { kContinue, kPathEnded };

  void RunPath(PathState state) {
    for (;;) {
      if (state.frames.empty()) {
        ++result_.paths_explored;
        ++result_.paths_completed;
        return;
      }
      if (state.steps > options_.max_steps_per_path ||
          total_steps_ > options_.max_total_steps) {
        ++result_.paths_explored;
        ++result_.paths_limited;
        if (total_steps_ > options_.max_total_steps) {
          result_.path_limit_hit = true;
        }
        return;
      }
      Frame& frame = state.frames.back();
      const lang::IrBlock& block =
          frame.fn->blocks[static_cast<size_t>(frame.block)];
      if (frame.instr_index < block.instrs.size()) {
        const lang::IrInstr& instr = block.instrs[frame.instr_index];
        ++frame.instr_index;
        ++state.steps;
        ++total_steps_;
        deadline_.TickOrThrow("symexec");
        if (ExecInstr(state, instr) == StepResult::kPathEnded) {
          return;
        }
        continue;
      }
      // Terminator. Counted as a step: blocks can be instruction-free, and
      // an empty symbolic loop must still exhaust the budget.
      ++state.steps;
      ++total_steps_;
      deadline_.TickOrThrow("symexec");
      const lang::Terminator& term = block.term;
      switch (term.kind) {
        case lang::TerminatorKind::kJump:
          frame.block = term.target_true;
          frame.instr_index = 0;
          break;
        case lang::TerminatorKind::kBranch: {
          if (HandleBranch(state, term) == StepResult::kPathEnded) {
            return;
          }
          break;
        }
        case lang::TerminatorKind::kReturn: {
          const ExprRef value =
              term.value == lang::kNoReg
                  ? pool_.Const(0)
                  : frame.regs[static_cast<size_t>(term.value)];
          const lang::RegId dst = frame.caller_dst;
          state.frames.pop_back();
          if (state.frames.empty()) {
            ++result_.paths_explored;
            ++result_.paths_completed;
            return;
          }
          if (dst != lang::kNoReg) {
            state.frames.back().regs[static_cast<size_t>(dst)] = value;
          }
          break;
        }
        case lang::TerminatorKind::kAbort:
          ++result_.paths_explored;
          ++result_.paths_aborted;
          return;
      }
    }
  }

  StepResult HandleBranch(PathState& state, const lang::Terminator& term) {
    Frame& frame = state.frames.back();
    const ExprRef cond = frame.regs[static_cast<size_t>(term.cond)];
    const ExprNode& node = pool_.node(cond);
    if (node.op == ExprOp::kConst) {
      frame.block = node.imm != 0 ? term.target_true : term.target_false;
      frame.instr_index = 0;
      return StepResult::kContinue;
    }
    const ExprRef truthy = pool_.Truthy(cond);
    const ExprRef falsy = pool_.Falsy(cond);
    std::vector<ExprRef> pc_true = state.pc;
    AddConstraint(pc_true, truthy);
    std::vector<ExprRef> pc_false = state.pc;
    AddConstraint(pc_false, falsy);
    const bool true_ok = FeasibleDelta(state.ranges, truthy, pc_true);
    const bool false_ok = FeasibleDelta(state.ranges, falsy, pc_false);
    if (true_ok && false_ok) {
      ++result_.forks;
      PathState other = state;  // Deep copy.
      other.pc = std::move(pc_false);
      other.frames.back().block = term.target_false;
      other.frames.back().instr_index = 0;
      Refine(falsy, other.ranges);
      worklist_.push_back(std::move(other));
      state.pc = std::move(pc_true);
      Refine(truthy, state.ranges);
      frame.block = term.target_true;
      frame.instr_index = 0;
      return StepResult::kContinue;
    }
    if (true_ok || false_ok) {
      state.pc = true_ok ? std::move(pc_true) : std::move(pc_false);
      Refine(true_ok ? truthy : falsy, state.ranges);
      frame.block = true_ok ? term.target_true : term.target_false;
      frame.instr_index = 0;
      return StepResult::kContinue;
    }
    // Both infeasible: contradictory path condition (can happen after an
    // over-approximating fresh variable was constrained both ways).
    ++result_.paths_explored;
    ++result_.paths_infeasible_assume;
    return StepResult::kPathEnded;
  }

  // Returns the storage and size for an array access instruction.
  std::vector<ExprRef>* ArrayStorage(PathState& state, Frame& frame,
                                     const lang::IrInstr& instr, int64_t& size) {
    if (instr.array >= 0) {
      size = frame.fn->arrays[static_cast<size_t>(instr.array)].size;
      return &frame.arrays[static_cast<size_t>(instr.array)];
    }
    size = module_.globals[static_cast<size_t>(instr.global)].array_size;
    return &state.global_arrays[static_cast<size_t>(instr.global)];
  }

  StepResult ExecInstr(PathState& state, const lang::IrInstr& instr) {
    Frame& frame = state.frames.back();
    auto reg = [&frame](lang::RegId r) { return frame.regs[static_cast<size_t>(r)]; };
    auto set = [&frame](lang::RegId r, ExprRef v) {
      frame.regs[static_cast<size_t>(r)] = v;
    };
    switch (instr.op) {
      case lang::IrOpcode::kConst:
        set(instr.dst, pool_.Const(instr.imm));
        return StepResult::kContinue;
      case lang::IrOpcode::kCopy:
        set(instr.dst, reg(instr.a));
        return StepResult::kContinue;
      case lang::IrOpcode::kUnOp:
        set(instr.dst, pool_.FromUnaryOp(instr.unary_op, reg(instr.a)));
        return StepResult::kContinue;
      case lang::IrOpcode::kBinOp: {
        if (instr.binary_op == lang::BinaryOp::kDiv ||
            instr.binary_op == lang::BinaryOp::kRem) {
          return ExecDivision(state, instr);
        }
        bool made_fresh;
        set(instr.dst, Bounded(pool_.FromBinaryOp(instr.binary_op, reg(instr.a),
                                                  reg(instr.b), made_fresh)));
        return StepResult::kContinue;
      }
      case lang::IrOpcode::kLoadGlobal:
        set(instr.dst, state.globals[static_cast<size_t>(instr.global)]);
        return StepResult::kContinue;
      case lang::IrOpcode::kStoreGlobal:
        state.globals[static_cast<size_t>(instr.global)] = reg(instr.a);
        return StepResult::kContinue;
      case lang::IrOpcode::kArrayLoad:
      case lang::IrOpcode::kArrayStore:
        return ExecArrayAccess(state, instr);
      case lang::IrOpcode::kCall:
        return ExecCall(state, instr);
      case lang::IrOpcode::kInput:
        set(instr.dst, NewInputVar(support::Format("in%d", result_.symbolic_inputs)));
        return StepResult::kContinue;
      case lang::IrOpcode::kOutput:
        return StepResult::kContinue;
      case lang::IrOpcode::kAssume: {
        const ExprRef cond = reg(instr.a);
        const ExprNode& node = pool_.node(cond);
        if (node.op == ExprOp::kConst) {
          if (node.imm != 0) {
            return StepResult::kContinue;
          }
          ++result_.paths_explored;
          ++result_.paths_infeasible_assume;
          return StepResult::kPathEnded;
        }
        const ExprRef assumed = pool_.Truthy(cond);
        AddConstraint(state.pc, assumed);
        const bool live = FeasibleDelta(state.ranges, assumed, state.pc);
        Refine(assumed, state.ranges);
        if (!live) {
          ++result_.paths_explored;
          ++result_.paths_infeasible_assume;
          return StepResult::kPathEnded;
        }
        return StepResult::kContinue;
      }
    }
    return StepResult::kContinue;
  }

  StepResult ExecDivision(PathState& state, const lang::IrInstr& instr) {
    Frame& frame = state.frames.back();
    const ExprRef a = frame.regs[static_cast<size_t>(instr.a)];
    const ExprRef b = frame.regs[static_cast<size_t>(instr.b)];
    const ExprNode& divisor = pool_.node(b);
    if (divisor.op == ExprOp::kConst) {
      if (divisor.imm == 0) {
        // Unconditional division by zero on this path.
        RecordVuln(VulnKind::kDivByZero, frame, instr.line, state.pc,
                   state.ranges);
        ++result_.paths_explored;
        ++result_.paths_faulted;
        return StepResult::kPathEnded;
      }
      bool made_fresh;
      frame.regs[static_cast<size_t>(instr.dst)] =
          pool_.FromBinaryOp(instr.binary_op, a, b, made_fresh);
      return StepResult::kContinue;
    }
    // Symbolic divisor: is zero reachable?
    const ExprRef zero = pool_.Binary(ExprOp::kEq, b, pool_.Const(0));
    std::vector<ExprRef> zero_pc = state.pc;
    AddConstraint(zero_pc, zero);
    if (FeasibleDelta(state.ranges, zero, zero_pc)) {
      RangeRefinements zero_refs = state.ranges;
      Refine(zero, zero_refs);
      RecordVuln(VulnKind::kDivByZero, frame, instr.line, zero_pc, zero_refs);
    }
    // Continue on the non-zero side.
    const ExprRef nonzero = pool_.Binary(ExprOp::kNe, b, pool_.Const(0));
    AddConstraint(state.pc, nonzero);
    const bool live = FeasibleDelta(state.ranges, nonzero, state.pc);
    Refine(nonzero, state.ranges);
    if (!live) {
      ++result_.paths_explored;
      ++result_.paths_faulted;
      return StepResult::kPathEnded;
    }
    bool made_fresh;
    frame.regs[static_cast<size_t>(instr.dst)] =
        pool_.FromBinaryOp(instr.binary_op, a, b, made_fresh);
    return StepResult::kContinue;
  }

  StepResult ExecArrayAccess(PathState& state, const lang::IrInstr& instr) {
    Frame& frame = state.frames.back();
    int64_t size = 0;
    std::vector<ExprRef>* storage = ArrayStorage(state, frame, instr, size);
    const ExprRef index = frame.regs[static_cast<size_t>(instr.a)];
    const ExprNode& index_node = pool_.node(index);
    if (index_node.op == ExprOp::kConst) {
      if (index_node.imm < 0 || index_node.imm >= size) {
        RecordVuln(VulnKind::kOutOfBounds, frame, instr.line, state.pc,
                   state.ranges);
        ++result_.paths_explored;
        ++result_.paths_faulted;
        return StepResult::kPathEnded;
      }
      const auto i = static_cast<size_t>(index_node.imm);
      if (instr.op == lang::IrOpcode::kArrayLoad) {
        frame.regs[static_cast<size_t>(instr.dst)] = (*storage)[i];
      } else {
        (*storage)[i] = frame.regs[static_cast<size_t>(instr.b)];
      }
      return StepResult::kContinue;
    }
    // Symbolic index: first, is an out-of-bounds access reachable?
    const ExprRef below = pool_.Binary(ExprOp::kSlt, index, pool_.Const(0));
    const ExprRef above = pool_.Binary(ExprOp::kSle, pool_.Const(size), index);
    const ExprRef oob = pool_.Binary(ExprOp::kOr, below, above);
    std::vector<ExprRef> oob_pc = state.pc;
    AddConstraint(oob_pc, oob);
    if (FeasibleDelta(state.ranges, oob, oob_pc)) {
      RangeRefinements oob_refs = state.ranges;
      Refine(oob, oob_refs);
      RecordVuln(VulnKind::kOutOfBounds, frame, instr.line, oob_pc, oob_refs);
    }
    // Continue in-bounds.
    const ExprRef in_bounds = pool_.Falsy(oob);
    AddConstraint(state.pc, in_bounds);
    const bool live = FeasibleDelta(state.ranges, in_bounds, state.pc);
    Refine(in_bounds, state.ranges);
    if (!live) {
      ++result_.paths_explored;
      ++result_.paths_faulted;
      return StepResult::kPathEnded;
    }
    if (size > options_.max_symbolic_array) {
      // Too wide to expand: havoc.
      if (instr.op == lang::IrOpcode::kArrayLoad) {
        frame.regs[static_cast<size_t>(instr.dst)] = pool_.FreshVar("wide_load");
      } else {
        for (auto& cell : *storage) {
          cell = pool_.FreshVar("wide_store");
        }
      }
      return StepResult::kContinue;
    }
    if (instr.op == lang::IrOpcode::kArrayLoad) {
      // ITE chain over the cells.
      ExprRef value = (*storage)[static_cast<size_t>(size - 1)];
      for (int64_t i = size - 2; i >= 0; --i) {
        const ExprRef is_i = pool_.Binary(ExprOp::kEq, index, pool_.Const(i));
        value = pool_.Ite(is_i, (*storage)[static_cast<size_t>(i)], value);
      }
      frame.regs[static_cast<size_t>(instr.dst)] = Bounded(value);
    } else {
      const ExprRef value = frame.regs[static_cast<size_t>(instr.b)];
      for (int64_t i = 0; i < size; ++i) {
        const ExprRef is_i = pool_.Binary(ExprOp::kEq, index, pool_.Const(i));
        (*storage)[static_cast<size_t>(i)] =
            pool_.Ite(is_i, value, (*storage)[static_cast<size_t>(i)]);
      }
    }
    return StepResult::kContinue;
  }

  StepResult ExecCall(PathState& state, const lang::IrInstr& instr) {
    Frame& frame = state.frames.back();
    const lang::IrFunction* callee = module_.FindFunction(instr.callee);
    if (callee == nullptr ||
        state.frames.size() >= static_cast<size_t>(options_.max_call_depth)) {
      // External or too deep: havoc the result.
      if (instr.dst != lang::kNoReg) {
        frame.regs[static_cast<size_t>(instr.dst)] = pool_.FreshVar("call_" + instr.callee);
      }
      return StepResult::kContinue;
    }
    Frame new_frame = MakeFrame(*callee, /*symbolic_params=*/false);
    for (size_t i = 0; i < callee->param_regs.size(); ++i) {
      const ExprRef arg = i < instr.args.size()
                              ? frame.regs[static_cast<size_t>(instr.args[i])]
                              : pool_.Const(0);
      new_frame.regs[static_cast<size_t>(callee->param_regs[i])] = arg;
    }
    new_frame.caller_dst = instr.dst;
    state.frames.push_back(std::move(new_frame));
    return StepResult::kContinue;
  }

  struct VulnInfo {
    double fraction = 0.0;
    uint64_t paths = 0;
  };

  static constexpr size_t kModelCacheSize = 8;

  const lang::IrModule& module_;
  SymExecOptions options_;
  ExprPool pool_;
  support::Rng rng_;
  RangeEvaluator range_eval_;
  // Persistent SAT instance for incremental mode: one solver + blaster for
  // the whole exploration, with per-constraint activation literals
  // (activation_[ref] == -1 until the constraint is first encoded). The
  // solver is leased from the thread's recycled session when
  // options.reuse_solver_session allows (leased_session_), otherwise owned.
  // Declaration order matters: owned_solver_/leased_session_ must initialize
  // before the inc_solver_ reference that AcquireSolver binds.
  bool leased_session_ = false;
  std::unique_ptr<SatSolver> owned_solver_;
  SatSolver& inc_solver_;
  BitBlaster inc_blaster_;
  std::vector<Lit> activation_;
  // Per-constraint decision cones (indexed like activation_) and the
  // epoch-stamped scratch used to union them per query.
  std::vector<std::vector<Var>> cones_;
  std::vector<uint32_t> cone_stamp_;
  uint32_t cone_epoch_ = 0;
  // Epoch-stamped visited set and stack reused by UsedVars.
  std::vector<uint32_t> visit_stamp_;
  uint32_t visit_epoch_ = 0;
  std::vector<ExprRef> visit_stack_;
  uint64_t total_steps_ = 0;
  support::Deadline deadline_;   // Per-exploration cooperative watchdog.
  uint64_t fault_key_ = 0;       // Module×entry key for solver-query faults.
  std::vector<std::vector<int64_t>> model_cache_;
  size_t model_cache_next_ = 0;  // Next ring-buffer slot to overwrite.
  SymExecResult result_;
  std::vector<PathState> worklist_;
  std::map<std::pair<VulnKind, std::pair<std::string, int>>, VulnInfo> vuln_map_;
};

}  // namespace

SymExecResult Explore(const lang::IrModule& module, const std::string& entry,
                      const SymExecOptions& options) {
  return Explorer(module, options).Run(entry);
}

uint64_t SolverSessionReuseCount() {
  return g_solver_session_reuses.load(std::memory_order_relaxed);
}

metrics::FeatureVector SymexFeatures(const lang::IrModule& module,
                                     const SymExecOptions& options) {
  const std::vector<std::string> entries = SymexEntries(module, options);
  std::vector<size_t> indices(entries.size());
  std::iota(indices.begin(), indices.end(), size_t{0});
  return SymexFeaturesFromResults(ExploreEntries(module, entries, indices, options));
}

std::vector<std::string> SymexEntries(const lang::IrModule& module,
                                      const SymExecOptions& options) {
  std::vector<std::string> entries;
  if (module.FindFunction("main") != nullptr) {
    entries.push_back("main");
  } else {
    entries = metrics::CallGraph(module).Roots();
  }
  const size_t max_entries =
      options.max_entries > 0 ? static_cast<size_t>(options.max_entries) : entries.size();
  if (entries.size() > max_entries) {
    entries.resize(max_entries);
  }
  return entries;
}

std::vector<SymExecResult> ExploreEntries(const lang::IrModule& module,
                                          const std::vector<std::string>& entries,
                                          const std::vector<size_t>& indices,
                                          const SymExecOptions& options) {
  // Entry explorations are independent (each builds its own pool, solver,
  // and RNG), so they fan out on the global pool. Per-entry Rng::TaskSeed
  // streams keep every entry's sampling independent of sibling count and
  // scheduling, so the results are bit-identical at any CLAIR_THREADS value.
  return support::ParallelMap<SymExecResult>(indices.size(), [&](size_t m) {
    SymExecOptions entry_options = options;
    entry_options.rng_seed =
        support::Rng::TaskSeed(options.rng_seed, static_cast<uint64_t>(indices[m]));
    return Explore(module, entries[indices[m]], entry_options);
  });
}

metrics::FeatureVector SymexFeaturesFromResults(const std::vector<SymExecResult>& results) {
  metrics::FeatureVector fv;
  uint64_t paths = 0;
  uint64_t completed = 0;
  uint64_t vuln_sites = 0;
  uint64_t oob_sites = 0;
  uint64_t div_sites = 0;
  uint64_t queries = 0;
  uint64_t pruned = 0;
  uint64_t conflicts = 0;
  uint64_t reuse_hits = 0;
  uint64_t folds = 0;
  double max_fraction = 0.0;
  double sum_fraction = 0.0;
  for (const SymExecResult& result : results) {
    paths += result.paths_explored;
    completed += result.paths_completed;
    vuln_sites += result.vulns.size();
    queries += result.solver_queries;
    pruned += result.range_pruned;
    conflicts += result.sat_conflicts;
    reuse_hits += result.model_reuse_hits;
    folds += result.simplifier_folds;
    for (const auto& vuln : result.vulns) {
      if (vuln.kind == VulnKind::kOutOfBounds) {
        ++oob_sites;
      } else {
        ++div_sites;
      }
      max_fraction = std::max(max_fraction, vuln.exploit_fraction);
      sum_fraction += vuln.exploit_fraction;
    }
  }
  fv.Set("symx.entries", static_cast<double>(results.size()));
  fv.Set("symx.paths", static_cast<double>(paths));
  fv.Set("symx.paths_completed", static_cast<double>(completed));
  fv.Set("symx.vuln_sites", static_cast<double>(vuln_sites));
  fv.Set("symx.oob_sites", static_cast<double>(oob_sites));
  fv.Set("symx.divzero_sites", static_cast<double>(div_sites));
  fv.Set("symx.solver_queries", static_cast<double>(queries));
  fv.Set("symx.range_pruned", static_cast<double>(pruned));
  // Fraction of feasibility decisions the range domain settled without a SAT
  // query. 0 when pruning is disabled or nothing was decidable.
  fv.Set("symx.range_prune_rate",
         static_cast<double>(pruned) /
             static_cast<double>(std::max<uint64_t>(1, pruned + queries)));
  fv.Set("symx.sat_conflicts", static_cast<double>(conflicts));
  fv.Set("symx.model_reuse_hits", static_cast<double>(reuse_hits));
  fv.Set("symx.simplifier_folds", static_cast<double>(folds));
  fv.Set("symx.max_exploit_fraction", max_fraction);
  fv.Set("symx.sum_exploit_fraction", sum_fraction);
  return fv;
}

}  // namespace symx
