// Tests for the SAT solver, bit-blaster, model counters, and symbolic
// executor, including property-style cross-validation of the bit-blaster
// against concrete expression evaluation.
#include <gtest/gtest.h>

#include <cstring>

#include "src/clair/testbed.h"
#include "src/corpus/codegen.h"
#include "src/lang/interp.h"
#include "src/lang/parser.h"
#include "src/metrics/callgraph.h"
#include "src/support/rng.h"
#include "src/support/thread_pool.h"
#include "src/symexec/bitblast.h"
#include "src/symexec/counter.h"
#include "src/symexec/executor.h"
#include "src/symexec/sat.h"

namespace symx {
namespace {

lang::IrModule MustLower(std::string_view source) {
  auto unit = lang::Parse(source);
  EXPECT_TRUE(unit.ok()) << (unit.ok() ? "" : unit.error().ToString());
  auto module = lang::LowerToIr(unit.value());
  EXPECT_TRUE(module.ok()) << (module.ok() ? "" : module.error().ToString());
  return std::move(module).value();
}

// --- SAT solver -------------------------------------------------------------

TEST(Sat, SimpleSatisfiable) {
  SatSolver solver;
  const Var a = solver.NewVar();
  const Var b = solver.NewVar();
  solver.AddBinary(MakeLit(a, false), MakeLit(b, false));
  solver.AddBinary(MakeLit(a, true), MakeLit(b, false));
  EXPECT_EQ(solver.Solve(), SatResult::kSat);
  EXPECT_TRUE(solver.ModelValue(b));
}

TEST(Sat, SimpleUnsat) {
  SatSolver solver;
  const Var a = solver.NewVar();
  solver.AddUnit(MakeLit(a, false));
  solver.AddUnit(MakeLit(a, true));
  EXPECT_EQ(solver.Solve(), SatResult::kUnsat);
}

TEST(Sat, PigeonholeUnsat) {
  // 4 pigeons, 3 holes: classic small UNSAT needing real search.
  SatSolver solver;
  const int pigeons = 4;
  const int holes = 3;
  std::vector<std::vector<Var>> at(pigeons, std::vector<Var>(holes));
  for (auto& row : at) {
    for (auto& v : row) {
      v = solver.NewVar();
    }
  }
  for (int p = 0; p < pigeons; ++p) {
    std::vector<Lit> clause;
    for (int h = 0; h < holes; ++h) {
      clause.push_back(MakeLit(at[p][h], false));
    }
    solver.AddClause(clause);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        solver.AddBinary(MakeLit(at[p1][h], true), MakeLit(at[p2][h], true));
      }
    }
  }
  EXPECT_EQ(solver.Solve(), SatResult::kUnsat);
}

TEST(Sat, Assumptions) {
  SatSolver solver;
  const Var a = solver.NewVar();
  const Var b = solver.NewVar();
  solver.AddBinary(MakeLit(a, true), MakeLit(b, false));  // a -> b
  EXPECT_EQ(solver.Solve({MakeLit(a, false)}), SatResult::kSat);
  EXPECT_TRUE(solver.ModelValue(b));
  solver.AddUnit(MakeLit(b, true));
  EXPECT_EQ(solver.Solve({MakeLit(a, false)}), SatResult::kUnsat);
  EXPECT_EQ(solver.Solve({MakeLit(a, true)}), SatResult::kSat);
}

TEST(Sat, RandomThreeSatAgreesWithBruteForce) {
  // Cross-validate the solver against exhaustive checking on random 3-SAT.
  support::Rng rng(42);
  for (int iter = 0; iter < 200; ++iter) {
    const int num_vars = 8;
    const int num_clauses = 3 + static_cast<int>(rng.NextBelow(30));
    std::vector<std::vector<Lit>> clauses;
    for (int c = 0; c < num_clauses; ++c) {
      std::vector<Lit> clause;
      for (int k = 0; k < 3; ++k) {
        const Var v = static_cast<Var>(rng.NextBelow(num_vars));
        clause.push_back(MakeLit(v, rng.NextBool()));
      }
      clauses.push_back(clause);
    }
    bool brute_sat = false;
    for (uint32_t mask = 0; mask < (1u << num_vars) && !brute_sat; ++mask) {
      bool all = true;
      for (const auto& clause : clauses) {
        bool any = false;
        for (const Lit lit : clause) {
          const bool value = ((mask >> LitVar(lit)) & 1) != 0;
          if (value != LitNegated(lit)) {
            any = true;
            break;
          }
        }
        if (!any) {
          all = false;
          break;
        }
      }
      brute_sat = all;
    }
    SatSolver solver;
    for (int v = 0; v < num_vars; ++v) {
      solver.NewVar();
    }
    for (auto& clause : clauses) {
      solver.AddClause(std::move(clause));
    }
    EXPECT_EQ(solver.Solve() == SatResult::kSat, brute_sat) << "iteration " << iter;
  }
}

// --- Bit-blasting cross-validation -------------------------------------------

struct RandomExprCase {
  uint64_t seed;
};

class BitblastProperty : public ::testing::TestWithParam<uint64_t> {};

// Builds a random expression over `vars`, then checks that for a SAT model of
// (expr == K) the concrete evaluation agrees.
TEST_P(BitblastProperty, ModelsEvaluateConsistently) {
  support::Rng rng(GetParam());
  ExprPool pool(8);
  std::vector<ExprRef> vars = {pool.FreshVar("x"), pool.FreshVar("y")};
  // Random expression tree.
  std::vector<ExprRef> terms = vars;
  terms.push_back(pool.Const(static_cast<int64_t>(rng.NextBelow(7)) - 3));
  for (int step = 0; step < 6; ++step) {
    const ExprOp ops[] = {ExprOp::kAdd,  ExprOp::kSub, ExprOp::kMul, ExprOp::kAnd,
                          ExprOp::kOr,   ExprOp::kXor, ExprOp::kEq,  ExprOp::kNe,
                          ExprOp::kSlt,  ExprOp::kSle, ExprOp::kShl, ExprOp::kShr};
    const ExprOp op = ops[rng.NextBelow(sizeof(ops) / sizeof(ops[0]))];
    const ExprRef a = terms[rng.NextBelow(terms.size())];
    const ExprRef b = terms[rng.NextBelow(terms.size())];
    terms.push_back(pool.Binary(op, a, b));
  }
  const ExprRef expr = terms.back();

  SatSolver solver;
  BitBlaster blaster(pool, solver);
  blaster.Encode(expr);
  // Force the variables to exist in the solver.
  blaster.VarBits(0);
  blaster.VarBits(1);
  if (solver.Solve() != SatResult::kSat) {
    return;  // Constant-folded to a trivial formula with no model needed.
  }
  std::vector<int64_t> assignment = {blaster.ModelValueOf(0), blaster.ModelValueOf(1)};
  const int64_t concrete = pool.Eval(expr, assignment);
  // Re-encode equality with the concrete value and check satisfiability
  // under the same assignment, pinned via unit clauses.
  SatSolver solver2;
  BitBlaster blaster2(pool, solver2);
  const ExprRef eq = pool.Binary(ExprOp::kEq, expr, pool.Const(concrete));
  blaster2.AssertTrue(eq);
  for (int var_id = 0; var_id < 2; ++var_id) {
    const auto& bits = blaster2.VarBits(var_id);
    const uint64_t value = static_cast<uint64_t>(assignment[static_cast<size_t>(var_id)]);
    for (size_t i = 0; i < bits.size(); ++i) {
      solver2.AddUnit(MakeLit(bits[i], ((value >> i) & 1) == 0));
    }
  }
  EXPECT_EQ(solver2.Solve(), SatResult::kSat) << pool.ToString(expr);
}

INSTANTIATE_TEST_SUITE_P(RandomExprs, BitblastProperty,
                         ::testing::Range<uint64_t>(1, 60));

// --- Model counting ----------------------------------------------------------

TEST(Counter, ExactCountSmallRange) {
  ExprPool pool(8);
  const ExprRef x = pool.FreshVar("x");
  // 0 <= x < 10 over signed 8-bit: exactly 10 models.
  std::vector<ExprRef> constraints = {
      pool.Binary(ExprOp::kSle, pool.Const(0), x),
      pool.Binary(ExprOp::kSlt, x, pool.Const(10)),
  };
  const CountResult result = CountExact(pool, constraints, {0}, 1000);
  EXPECT_TRUE(result.exact);
  EXPECT_EQ(result.models, 10u);
}

TEST(Counter, ExactCountConjunction) {
  ExprPool pool(8);
  const ExprRef x = pool.FreshVar("x");
  const ExprRef y = pool.FreshVar("y");
  // x in [0,4) and y == x: 4 models over (x, y).
  std::vector<ExprRef> constraints = {
      pool.Binary(ExprOp::kSle, pool.Const(0), x),
      pool.Binary(ExprOp::kSlt, x, pool.Const(4)),
      pool.Binary(ExprOp::kEq, y, x),
  };
  const CountResult result = CountExact(pool, constraints, {0, 1}, 1000);
  EXPECT_TRUE(result.exact);
  EXPECT_EQ(result.models, 4u);
}

TEST(Counter, CapIsRespected) {
  ExprPool pool(8);
  const ExprRef x = pool.FreshVar("x");
  std::vector<ExprRef> constraints = {pool.Binary(ExprOp::kNe, x, pool.Const(5))};
  const CountResult result = CountExact(pool, constraints, {0}, 16);
  EXPECT_FALSE(result.exact);
  EXPECT_EQ(result.models, 16u);
}

TEST(Counter, SamplingMatchesExactFraction) {
  ExprPool pool(8);
  const ExprRef x = pool.FreshVar("x");
  // x >= 0 over signed 8-bit: exactly half the space.
  std::vector<ExprRef> constraints = {pool.Binary(ExprOp::kSle, pool.Const(0), x)};
  support::Rng rng(7);
  const double fraction = EstimateFraction(pool, constraints, rng, 4000);
  EXPECT_NEAR(fraction, 0.5, 0.05);
}

// --- Symbolic executor --------------------------------------------------------

TEST(Executor, CountsPathsOfDiamond) {
  const auto module = MustLower(R"(
    int main() {
      int a = input();
      int b = input();
      int r = 0;
      if (a > 0) { r += 1; }
      if (b > 0) { r += 2; }
      return r;
    }
  )");
  const SymExecResult result = Explore(module, "main");
  EXPECT_EQ(result.paths_completed, 4u);
  EXPECT_TRUE(result.vulns.empty());
}

TEST(Executor, FindsGuardedOutOfBounds) {
  const auto module = MustLower(R"(
    int main() {
      int buf[4];
      int i = input();
      if (i >= 0 && i < 8) {
        buf[i] = 1;
        return buf[i];
      }
      return 0;
    }
  )");
  const SymExecResult result = Explore(module, "main");
  ASSERT_FALSE(result.vulns.empty());
  EXPECT_EQ(result.vulns[0].kind, VulnKind::kOutOfBounds);
  // Trigger range is i in [4, 8): 4 of 2^16 values.
  const double expected = 4.0 / 65536.0;
  EXPECT_GT(result.vulns[0].exploit_fraction, 0.0);
  EXPECT_LT(result.vulns[0].exploit_fraction, 100 * expected + 0.01);
}

TEST(Executor, NoFalsePositiveWhenFullyGuarded) {
  const auto module = MustLower(R"(
    int main() {
      int buf[4];
      int i = input();
      if (i >= 0 && i < 4) {
        buf[i] = 1;
        return buf[i];
      }
      return 0;
    }
  )");
  const SymExecResult result = Explore(module, "main");
  EXPECT_TRUE(result.vulns.empty()) << result.vulns.size();
}

TEST(Executor, FindsDivisionByZero) {
  const auto module = MustLower(R"(
    int main() {
      int d = input();
      return 100 / d;
    }
  )");
  const SymExecResult result = Explore(module, "main");
  ASSERT_EQ(result.vulns.size(), 1u);
  EXPECT_EQ(result.vulns[0].kind, VulnKind::kDivByZero);
  // Exactly one of 2^16 divisor values faults; sampling may see zero hits
  // but the site must still be reported via the SAT check.
  EXPECT_GE(result.vulns[0].paths, 1u);
}

TEST(Executor, DivisionGuardedIsSafe) {
  const auto module = MustLower(R"(
    int main() {
      int d = input();
      if (d == 0) { return 0; }
      return 100 / d;
    }
  )");
  const SymExecResult result = Explore(module, "main");
  EXPECT_TRUE(result.vulns.empty());
}

TEST(Executor, LoopPathExplosionIsBounded) {
  const auto module = MustLower(R"(
    int main() {
      int n = input();
      int total = 0;
      for (int i = 0; i < n; ++i) {
        total += i;
      }
      return total;
    }
  )");
  SymExecOptions options;
  options.max_paths = 32;
  const SymExecResult result = Explore(module, "main", options);
  EXPECT_TRUE(result.path_limit_hit);
  EXPECT_LE(result.paths_explored, 32u);
}

TEST(Executor, SymbolicIndexReadsCorrectCell) {
  // a[0..3] = {5,6,7,8}; return a[i] with i constrained to 2 via assume.
  const auto module = MustLower(R"(
    int main() {
      int a[4];
      a[0] = 5; a[1] = 6; a[2] = 7; a[3] = 8;
      int i = input();
      assume(i == 2);
      return a[i];
    }
  )");
  const SymExecResult result = Explore(module, "main");
  EXPECT_EQ(result.paths_completed, 1u);
  EXPECT_TRUE(result.vulns.empty());
}

TEST(Executor, InterproceduralVulnerability) {
  const auto module = MustLower(R"(
    int index_into(int idx) {
      int table[8];
      return table[idx];
    }
    int main() {
      int x = input();
      if (x > 100) {
        return index_into(x);
      }
      return 0;
    }
  )");
  const SymExecResult result = Explore(module, "main");
  ASSERT_FALSE(result.vulns.empty());
  EXPECT_EQ(result.vulns[0].kind, VulnKind::kOutOfBounds);
  EXPECT_EQ(result.vulns[0].function, "index_into");
}

TEST(Executor, AgreesWithInterpreterOnConcreteRuns) {
  // Property check: for each feasible completed path count, running the
  // interpreter over a grid of inputs must never produce an outcome class the
  // executor considers impossible (no vulns reported => no faults observed).
  const auto module = MustLower(R"(
    int main() {
      int a = input();
      int r = 0;
      if (a > 5) { r = a - 5; } else { r = 5 - a; }
      if (r % 2 == 0) { r += 10; }
      return r;
    }
  )");
  const SymExecResult sym = Explore(module, "main");
  EXPECT_TRUE(sym.vulns.empty());
  for (int64_t a = -20; a <= 20; ++a) {
    const auto trace = lang::Execute(module, "main", {}, {a});
    EXPECT_EQ(trace.outcome, lang::ExecOutcome::kReturned) << "a=" << a;
  }
}


TEST(Executor, EmptySymbolicLoopExhaustsBudget) {
  // Regression: an instruction-free loop body must still consume the step
  // budget (blocks without instructions execute only terminators).
  const auto module = MustLower(R"(
    int main() {
      int x = input();
      while (x > 0) { }
      return 0;
    }
  )");
  SymExecOptions options;
  options.max_paths = 8;
  options.max_steps_per_path = 256;
  options.max_total_steps = 1024;
  const SymExecResult result = Explore(module, "main", options);
  EXPECT_GT(result.paths_explored, 0u);  // Terminated at all.
}

TEST(Executor, RunawayExpressionsAreConcretized) {
  // x doubles every iteration: without concretization the expression tree
  // for x explodes and bit-blasting dominates. With max_expr_nodes the
  // exploration stays cheap and bounded.
  const auto module = MustLower(R"(
    int main() {
      int x = input();
      for (int i = 0; i < 200; ++i) {
        x = x * x + x;
      }
      return x;
    }
  )");
  SymExecOptions options;
  options.max_paths = 4;
  options.max_expr_nodes = 64;
  options.max_total_steps = 1 << 12;
  const SymExecResult result = Explore(module, "main", options);
  EXPECT_GT(result.paths_explored, 0u);
}

TEST(Executor, SolverQueryBudgetDegradesGracefully) {
  const auto module = MustLower(R"(
    int main() {
      int r = 0;
      for (int i = 0; i < 6; ++i) {
        int x = input();
        if (x * x - x > 100) { r += 1; }
      }
      return r;
    }
  )");
  SymExecOptions options;
  options.max_paths = 128;
  options.max_solver_queries = 4;
  options.solver_conflict_budget = 100;
  const SymExecResult result = Explore(module, "main", options);
  // Budget exhaustion must not prevent termination.
  EXPECT_GT(result.paths_explored, 0u);
  EXPECT_LE(result.solver_queries, 4u + 4u);  // Feasibility plus counting slack.
}

// --- Incremental solving equivalence -----------------------------------------

TEST(Sat, IncrementalSolvesMatchFreshOracle) {
  // A persistent solver under interleaved clause additions, assumption
  // queries (with and without decision restriction, with repeated assumption
  // sets to exercise trail reuse), and model blocking must agree with a
  // fresh solver rebuilt from scratch for every query.
  support::Rng rng(0xD1CE);
  constexpr int kNumVars = 8;
  for (int iter = 0; iter < 40; ++iter) {
    SatSolver inc;
    std::vector<Var> all_vars;
    for (int v = 0; v < kNumVars; ++v) {
      all_vars.push_back(inc.NewVar());
    }
    std::vector<std::vector<Lit>> clauses;
    const auto oracle_sat = [&](const std::vector<Lit>& assumptions) {
      SatSolver fresh;
      for (int v = 0; v < kNumVars; ++v) {
        fresh.NewVar();
      }
      for (const auto& clause : clauses) {
        fresh.AddClause(clause);
      }
      for (const Lit a : assumptions) {
        fresh.AddUnit(a);
      }
      return fresh.Solve() == SatResult::kSat;
    };
    const auto model_satisfies = [&](const std::vector<Lit>& assumptions) {
      for (const Lit a : assumptions) {
        if (inc.ModelValue(LitVar(a)) == LitNegated(a)) {
          return false;
        }
      }
      for (const auto& clause : clauses) {
        bool any = false;
        for (const Lit lit : clause) {
          if (inc.ModelValue(LitVar(lit)) != LitNegated(lit)) {
            any = true;
            break;
          }
        }
        if (!any) {
          return false;
        }
      }
      return true;
    };
    std::vector<Lit> prev_assumptions;
    for (int round = 0; round < 10; ++round) {
      const int new_clauses = static_cast<int>(rng.NextBelow(3));
      for (int c = 0; c < new_clauses; ++c) {
        std::vector<Lit> clause;
        const int len = 1 + static_cast<int>(rng.NextBelow(3));
        for (int k = 0; k < len; ++k) {
          clause.push_back(
              MakeLit(static_cast<Var>(rng.NextBelow(kNumVars)), rng.NextBool()));
        }
        clauses.push_back(clause);
        inc.AddClause(clause);
      }
      std::vector<Lit> assumptions;
      if (round % 3 == 2) {
        assumptions = prev_assumptions;  // Repeat: hits the trail-reuse path.
      } else {
        for (int v = 0; v < kNumVars; ++v) {
          if (rng.NextBelow(4) == 0) {
            assumptions.push_back(MakeLit(static_cast<Var>(v), rng.NextBool()));
          }
        }
      }
      prev_assumptions = assumptions;
      // Restricting decisions to ALL variables is always sound and drives
      // the restricted-query machinery (per-call heap, epoch stamps).
      const bool restricted = rng.NextBool();
      const SatResult got = inc.Solve(assumptions, 0, restricted ? &all_vars : nullptr);
      ASSERT_NE(got, SatResult::kUnknown);
      ASSERT_EQ(got == SatResult::kSat, oracle_sat(assumptions))
          << "iter " << iter << " round " << round;
      if (got == SatResult::kSat) {
        ASSERT_TRUE(model_satisfies(assumptions)) << "iter " << iter;
        if (rng.NextBool()) {
          // Block the model (enumeration style) and re-query under the same
          // assumptions: exercises the backjump + resumed-search path.
          std::vector<Lit> blocking;
          for (const Var v : all_vars) {
            blocking.push_back(MakeLit(v, inc.ModelValue(v)));
          }
          inc.AddBlockingClause(blocking);
          clauses.push_back(std::move(blocking));
          const SatResult after =
              inc.Solve(assumptions, 0, restricted ? &all_vars : nullptr);
          ASSERT_EQ(after == SatResult::kSat, oracle_sat(assumptions))
              << "iter " << iter << " round " << round << " after blocking";
          if (after == SatResult::kSat) {
            ASSERT_TRUE(model_satisfies(assumptions)) << "iter " << iter;
          }
        }
      }
    }
  }
}

// --- Search identity ----------------------------------------------------------
//
// The solver's storage layout (clause arena, inline binary watches, literal
// value table) must not change the search: the same decisions, propagations,
// conflicts, learned clauses and models. These pins were recorded on the
// pre-arena solver (one heap-allocated literal vector per clause); any change
// to trail order, conflict-clause literal order or learned-literal order
// shows up in the counters or the model digest.

uint64_t MixDigest(uint64_t digest, uint64_t value) {
  return (digest ^ value) * 1099511628211ULL;
}

struct SatPin {
  uint64_t conflicts = 0;
  uint64_t decisions = 0;
  uint64_t propagations = 0;
  uint64_t models = 0;  // kSat results.
  uint64_t model_digest = 14695981039346656037ULL;
};

// A seeded incremental stream over random 2..4-literal CNF: assumption
// queries that keep and extend a shared prefix, clauses added between
// solves, restricted queries, model enumeration through AddBlockingClause,
// and a Reset() between two sessions. Each session learns well past the
// solver's 2048-clause reduction threshold, so ReduceLearnedDb runs.
SatPin RunPinnedSatStream() {
  support::Rng rng(0x5A7C0DE);
  SatPin pin;
  SatSolver solver;
  for (int session = 0; session < 2; ++session) {
    solver.Reset();
    constexpr int kVars = 150;
    std::vector<Var> vars;
    for (int v = 0; v < kVars; ++v) {
      vars.push_back(solver.NewVar());
    }
    const auto random_clause = [&] {
      std::vector<Lit> clause;
      const uint64_t shape = rng.NextBelow(20);
      const int len = shape == 0 ? 2 : shape < 17 ? 3 : 4;
      for (int k = 0; k < len; ++k) {
        clause.push_back(MakeLit(static_cast<Var>(rng.NextBelow(kVars)), rng.NextBool()));
      }
      return clause;
    };
    for (int c = 0; c < 4 * kVars; ++c) {
      solver.AddClause(random_clause());
    }
    std::vector<Lit> prefix;
    for (int round = 0; round < 400; ++round) {
      // Keep a random-length prefix of the previous assumptions, then extend.
      prefix.resize(static_cast<size_t>(rng.NextBelow(prefix.size() + 1)));
      const int extend = static_cast<int>(rng.NextBelow(4));
      for (int k = 0; k < extend && prefix.size() < 12; ++k) {
        prefix.push_back(MakeLit(static_cast<Var>(rng.NextBelow(kVars)), rng.NextBool()));
      }
      const bool restricted = rng.NextBelow(3) == 0;
      SatResult result = solver.Solve(prefix, 0, restricted ? &vars : nullptr);
      pin.model_digest = MixDigest(pin.model_digest, static_cast<uint64_t>(result));
      for (int model = 0; result == SatResult::kSat && model < 3; ++model) {
        ++pin.models;
        std::vector<Lit> blocking;
        for (const Var v : vars) {
          pin.model_digest = MixDigest(pin.model_digest, solver.ModelValue(v) ? 1 : 0);
          if (v % 8 == 0) {
            blocking.push_back(MakeLit(v, solver.ModelValue(v)));
          }
        }
        solver.AddBlockingClause(std::move(blocking));
        result = solver.Solve(prefix, 0, restricted ? &vars : nullptr);
        pin.model_digest = MixDigest(pin.model_digest, static_cast<uint64_t>(result));
      }
      if (round % 5 == 4) {
        solver.AddClause(random_clause());
      }
    }
    pin.conflicts += solver.conflicts();
    pin.decisions += solver.decisions();
    pin.propagations += solver.propagations();
  }
  return pin;
}

TEST(Sat, IncrementalSearchIsPinned) {
  const SatPin pin = RunPinnedSatStream();
  EXPECT_EQ(pin.models, 546u);
  EXPECT_EQ(pin.conflicts, 13256u);
  EXPECT_EQ(pin.decisions, 27362u);
  EXPECT_EQ(pin.propagations, 477070u);
  EXPECT_EQ(pin.model_digest, 0x05c9a9fa55dee047ULL);
}

TEST(Executor, GeneratedExplorationsArePinned) {
  // Generated modules explored at the testbed's production budgets, in both
  // solver modes: paths, solver queries, CDCL conflicts and the bits of every
  // exploit fraction.
  struct Pin {
    bool incremental;
    uint64_t paths;
    uint64_t solver_queries;
    uint64_t sat_conflicts;
    uint64_t fraction_digest;
  };
  const Pin pins[4][2] = {
      {{true, 44, 264, 179, 0x19fd12186c0f2fb7ULL}, {false, 44, 264, 180, 0x19fd12186c0f2fb7ULL}},
      {{true, 48, 264, 117, 0xa6b28807b4eb6fedULL}, {false, 48, 264, 141, 0xa6b28807b4eb6fedULL}},
      {{true, 20, 212, 77, 0xc293bd4c8601b7dfULL}, {false, 20, 212, 77, 0xc293bd4c8601b7dfULL}},
      {{true, 41, 69, 177, 0x642512186c0f2fb7ULL}, {false, 41, 69, 922, 0x642512186c0f2fb7ULL}},
  };
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    support::Rng rng(seed * 7919);
    corpus::AppStyle style;
    style.complexity = 0.6;
    style.unsafety = 0.8;
    style.taintiness = 0.5;
    const std::string source = corpus::GenerateMiniCFile(rng, style, 160);
    const auto module = MustLower(source);
    const metrics::CallGraph graph(module);
    const auto roots = graph.Roots();
    ASSERT_FALSE(roots.empty());
    SymExecOptions options = clair::TestbedOptions::TightSymexecDefaults();
    for (const Pin& pin : pins[seed - 1]) {
      options.incremental_solver = pin.incremental;
      const SymExecResult result = Explore(module, roots.front(), options);
      uint64_t digest = 14695981039346656037ULL;
      for (const auto& vuln : result.vulns) {
        uint64_t bits = 0;
        std::memcpy(&bits, &vuln.exploit_fraction, sizeof(bits));
        digest = MixDigest(digest, bits);
      }
      const std::string where =
          "seed " + std::to_string(seed) + (pin.incremental ? " incremental" : " one-shot");
      EXPECT_EQ(result.paths_explored, pin.paths) << where;
      EXPECT_EQ(result.solver_queries, pin.solver_queries) << where;
      EXPECT_EQ(result.sat_conflicts, pin.sat_conflicts) << where;
      EXPECT_EQ(digest, pin.fraction_digest) << where;
    }
  }
}

TEST(Executor, IncrementalAndOneShotModesAgree) {
  // The incremental solver is the default; the one-shot oracle must produce
  // bit-identical exploration results on a corpus covering branching, vulns,
  // loops, symbolic arrays, and interprocedural flows.
  const char* kPrograms[] = {
      // Diamond branching.
      R"(int main() {
           int r = 0;
           int a = input(); if (a > 0) { r += 1; }
           int b = input(); if (b > 0) { r += 2; }
           int c = input(); if (c > 0) { r += 4; }
           return r;
         })",
      // Guarded and unguarded out-of-bounds.
      R"(int main() {
           int buf[8];
           int i = input();
           if (i >= 0 && i < 10) { buf[i] = 1; }
           return buf[0];
         })",
      // Division by zero behind a branch.
      R"(int main() {
           int d = input();
           int r = 0;
           if (d != 1) { r = 100 / d; }
           return r;
         })",
      // Loop with symbolic bound.
      R"(int main() {
           int n = input();
           int s = 0;
           for (int i = 0; i < n && i < 5; ++i) { s += i; }
           return s;
         })",
      // Symbolic array index read.
      R"(int main() {
           int t[4];
           t[0] = 10; t[1] = 20; t[2] = 30; t[3] = 40;
           int i = input();
           if (i >= 0 && i < 4) { return t[i]; }
           return 0;
         })",
      // Interprocedural vulnerability.
      R"(int poke(int i) { int b[4]; b[i] = 7; return b[0]; }
         int main() {
           int x = input();
           if (x > 2) { return poke(x); }
           return 0;
         })",
  };
  for (const char* source : kPrograms) {
    const auto module = MustLower(source);
    SymExecOptions options;
    options.max_paths = 256;
    options.max_solver_queries = 1 << 16;  // Generous: no budget divergence.
    options.incremental_solver = true;
    const SymExecResult inc = Explore(module, "main", options);
    options.incremental_solver = false;
    const SymExecResult oneshot = Explore(module, "main", options);
    EXPECT_EQ(inc.paths_explored, oneshot.paths_explored) << source;
    EXPECT_EQ(inc.paths_completed, oneshot.paths_completed) << source;
    EXPECT_EQ(inc.paths_aborted, oneshot.paths_aborted) << source;
    EXPECT_EQ(inc.paths_faulted, oneshot.paths_faulted) << source;
    EXPECT_EQ(inc.paths_infeasible_assume, oneshot.paths_infeasible_assume) << source;
    EXPECT_EQ(inc.forks, oneshot.forks) << source;
    ASSERT_EQ(inc.vulns.size(), oneshot.vulns.size()) << source;
    for (size_t i = 0; i < inc.vulns.size(); ++i) {
      EXPECT_EQ(inc.vulns[i].kind, oneshot.vulns[i].kind) << source;
      EXPECT_EQ(inc.vulns[i].function, oneshot.vulns[i].function) << source;
      EXPECT_EQ(inc.vulns[i].line, oneshot.vulns[i].line) << source;
      EXPECT_EQ(inc.vulns[i].paths, oneshot.vulns[i].paths) << source;
      EXPECT_EQ(inc.vulns[i].exploit_fraction, oneshot.vulns[i].exploit_fraction)
          << source;
    }
    // Solver-query counts are NOT compared: the modes may find different
    // models, so cache-hit patterns (and therefore query counts) can differ
    // while every exploration-visible result stays identical.
  }
}

// --- Range-guided path pruning ----------------------------------------------

// Semantic exploration results that must be bit-identical whether or not the
// range domain pruned solver queries. Counter fields (solver_queries,
// range_pruned, sat_conflicts, model_reuse_hits) are intentionally excluded:
// differing query counts are the optimisation's whole point.
void ExpectSameExploration(const SymExecResult& a, const SymExecResult& b,
                           const std::string& label) {
  EXPECT_EQ(a.paths_explored, b.paths_explored) << label;
  EXPECT_EQ(a.paths_completed, b.paths_completed) << label;
  EXPECT_EQ(a.paths_aborted, b.paths_aborted) << label;
  EXPECT_EQ(a.paths_infeasible_assume, b.paths_infeasible_assume) << label;
  EXPECT_EQ(a.paths_faulted, b.paths_faulted) << label;
  EXPECT_EQ(a.paths_limited, b.paths_limited) << label;
  EXPECT_EQ(a.path_limit_hit, b.path_limit_hit) << label;
  EXPECT_EQ(a.forks, b.forks) << label;
  EXPECT_EQ(a.symbolic_inputs, b.symbolic_inputs) << label;
  ASSERT_EQ(a.vulns.size(), b.vulns.size()) << label;
  for (size_t i = 0; i < a.vulns.size(); ++i) {
    EXPECT_EQ(a.vulns[i].kind, b.vulns[i].kind) << label;
    EXPECT_EQ(a.vulns[i].function, b.vulns[i].function) << label;
    EXPECT_EQ(a.vulns[i].line, b.vulns[i].line) << label;
    EXPECT_EQ(a.vulns[i].paths, b.vulns[i].paths) << label;
    EXPECT_EQ(a.vulns[i].exploit_fraction, b.vulns[i].exploit_fraction) << label;
  }
}

TEST(Executor, RangePruningPreservesExplorationResults) {
  const char* kPrograms[] = {
      // Correlated branches: the inner guards are implied or refuted by the
      // outer ones, the bread-and-butter pruning case.
      R"(int main() {
           int x = input();
           int r = 0;
           if (x > 5) {
             if (x > 3) { r += 1; }
             if (x < 2) { r += 2; }
           }
           return r;
         })",
      // Array access whose bounds check is subsumed by earlier guards.
      R"(int main() {
           int buf[8];
           int i = input();
           if (i >= 0) {
             if (i < 8) {
               buf[i] = 1;
               return buf[i];
             }
           }
           return 0;
         })",
      // Equality/disequality holes a convex interval cannot express.
      R"(int main() {
           int x = input();
           int r = 0;
           if (x == 7) { r = 70; }
           if (x != 7) { r = 7; }
           return 100 / (x - 6);
         })",
      // Division guarded transitively.
      R"(int main() {
           int d = input();
           if (d > 0) { return 100 / d; }
           return 0;
         })",
      // Loop with symbolic bound: loop-carried guards accumulate.
      R"(int main() {
           int n = input();
           int s = 0;
           for (int i = 0; i < n && i < 5; ++i) { s += i; }
           return s;
         })",
      // Interprocedural vulnerability.
      R"(int poke(int i) { int b[4]; b[i] = 7; return b[0]; }
         int main() {
           int x = input();
           if (x > 2) { return poke(x); }
           return 0;
         })",
  };
  uint64_t total_pruned = 0;
  for (const char* source : kPrograms) {
    const auto module = MustLower(source);
    SymExecOptions options;
    options.max_paths = 256;
    options.max_solver_queries = 1 << 16;  // Generous: no budget divergence.
    options.range_pruning = false;
    const SymExecResult ref = Explore(module, "main", options);
    options.range_pruning = true;
    const SymExecResult pruned = Explore(module, "main", options);
    ExpectSameExploration(ref, pruned, source);
    EXPECT_EQ(ref.range_pruned, 0u) << source;
    EXPECT_LE(pruned.solver_queries, ref.solver_queries) << source;
    total_pruned += pruned.range_pruned;
  }
  // The corpus above is built to be decidable: pruning must actually fire.
  EXPECT_GT(total_pruned, 0u);
}

TEST(Executor, RangePruningAgreesOnGeneratedCorpus) {
  // Randomized breadth: generated MiniC programs (branch-heavy, array-heavy,
  // interprocedural) must explore identically with and without pruning.
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    support::Rng rng(seed * 104729);
    corpus::AppStyle style;
    style.complexity = rng.NextDouble() * 0.6;
    style.unsafety = rng.NextDouble();
    style.taintiness = rng.NextDouble();
    const std::string source = corpus::GenerateMiniCFile(rng, style, 120);
    const auto module = MustLower(source);
    const metrics::CallGraph graph(module);
    const auto roots = graph.Roots();
    ASSERT_FALSE(roots.empty());

    SymExecOptions options;
    options.max_paths = 48;
    options.max_steps_per_path = 2048;
    options.exploit_sample_trials = 32;
    options.max_solver_queries = 1 << 16;
    options.range_pruning = false;
    const SymExecResult ref = Explore(module, roots.front(), options);
    options.range_pruning = true;
    const SymExecResult pruned = Explore(module, roots.front(), options);
    ExpectSameExploration(ref, pruned, "seed " + std::to_string(seed));
    EXPECT_LE(pruned.solver_queries, ref.solver_queries) << "seed " << seed;
  }
}

TEST(Executor, RangePruningSkipsSolverQueries) {
  // Every inner decision is implied by the outer guards, so the pruned run
  // must answer most feasibility checks without the solver.
  const auto module = MustLower(R"(
    int main() {
      int x = input();
      int buf[8];
      int r = 0;
      if (x >= 0) {
        if (x < 8) {
          buf[x] = 1;
          if (x >= 0) { r += 1; }
          if (x > 9) { r += 2; }
          r += buf[x];
        }
      }
      return r;
    }
  )");
  SymExecOptions options;
  options.max_solver_queries = 1 << 16;
  options.range_pruning = false;
  const SymExecResult ref = Explore(module, "main", options);
  options.range_pruning = true;
  const SymExecResult pruned = Explore(module, "main", options);
  ExpectSameExploration(ref, pruned, "correlated guards");
  EXPECT_GT(pruned.range_pruned, 0u);
  EXPECT_LT(pruned.solver_queries, ref.solver_queries);
}

TEST(Executor, PruneRateFeatureIsReported) {
  const auto module = MustLower(R"(
    int main() {
      int x = input();
      int r = 0;
      if (x > 4) {
        if (x > 2) { r += 1; }
        if (x < 0) { r += 2; }
      }
      return r;
    }
  )");
  SymExecOptions options;
  const metrics::FeatureVector on = SymexFeatures(module, options);
  EXPECT_GT(on.Get("symx.range_pruned"), 0.0);
  EXPECT_GT(on.Get("symx.range_prune_rate"), 0.0);
  EXPECT_LE(on.Get("symx.range_prune_rate"), 1.0);
  options.range_pruning = false;
  const metrics::FeatureVector off = SymexFeatures(module, options);
  EXPECT_EQ(off.Get("symx.range_pruned"), 0.0);
  EXPECT_EQ(off.Get("symx.range_prune_rate"), 0.0);
  // Pruning must not change the semantic features, only the counters.
  for (const char* key : {"symx.paths", "symx.paths_completed",
                          "symx.vuln_sites", "symx.oob_sites",
                          "symx.divzero_sites", "symx.max_exploit_fraction",
                          "symx.sum_exploit_fraction"}) {
    EXPECT_EQ(on.Get(key), off.Get(key)) << key;
  }
}

TEST(Executor, SymexFeaturesAreThreadCountInvariant) {
  const auto module = MustLower(R"(
    int helper(int v) { int b[4]; if (v < 6) { b[v] = 1; } return b[0]; }
    int main() {
      int x = input();
      int r = 0;
      if (x > 0) { r = helper(x); }
      return r;
    }
  )");
  support::ThreadPool::SetGlobalThreads(1);
  const metrics::FeatureVector serial = SymexFeatures(module);
  support::ThreadPool::SetGlobalThreads(4);
  const metrics::FeatureVector parallel = SymexFeatures(module);
  support::ThreadPool::SetGlobalThreads(0);  // Restore the default.
  EXPECT_EQ(serial.ToString(), parallel.ToString());
}

// The serving scheduler keeps one incremental SAT session per worker thread
// alive across requests (SymExecOptions::reuse_solver_session). A recycled
// session must behave exactly like a fresh solver: same paths, same queries,
// same vulnerabilities — and the reuse must actually happen.
TEST(Executor, RecycledSolverSessionBitIdenticalToFresh) {
  const auto module = MustLower(R"(
    int main() {
      int buf[4];
      int i = input();
      int j = input();
      if (i >= 0 && i < 8 && j > i) {
        buf[i] = j;
        return buf[i];
      }
      return 0;
    }
  )");
  SymExecOptions fresh_options;
  fresh_options.reuse_solver_session = false;
  const SymExecResult fresh = Explore(module, "main", fresh_options);

  SymExecOptions reuse_options;  // reuse_solver_session defaults to true.
  const uint64_t reuses_before = SolverSessionReuseCount();
  const SymExecResult first = Explore(module, "main", reuse_options);
  const SymExecResult second = Explore(module, "main", reuse_options);
  // The second run leased this thread's warmed session after a Reset().
  EXPECT_GT(SolverSessionReuseCount(), reuses_before);

  for (const SymExecResult* recycled : {&first, &second}) {
    EXPECT_EQ(recycled->paths_explored, fresh.paths_explored);
    EXPECT_EQ(recycled->paths_completed, fresh.paths_completed);
    EXPECT_EQ(recycled->paths_faulted, fresh.paths_faulted);
    EXPECT_EQ(recycled->forks, fresh.forks);
    EXPECT_EQ(recycled->solver_queries, fresh.solver_queries);
    ASSERT_EQ(recycled->vulns.size(), fresh.vulns.size());
    for (size_t i = 0; i < fresh.vulns.size(); ++i) {
      EXPECT_EQ(recycled->vulns[i].kind, fresh.vulns[i].kind);
      EXPECT_EQ(recycled->vulns[i].line, fresh.vulns[i].line);
      // Exact equality: the counter runs on the same solver state.
      EXPECT_EQ(recycled->vulns[i].exploit_fraction, fresh.vulns[i].exploit_fraction);
    }
  }
}

}  // namespace
}  // namespace symx
