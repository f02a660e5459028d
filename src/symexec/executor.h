// Bounded symbolic executor over the MiniC IR — the KLEE-style component the
// paper's §4.1 draws on. Explores feasible paths from an entry function,
// treating every input() as a fresh symbolic value, and reports:
//   - the number of feasible paths (path counting),
//   - vulnerability sites reachable under some input (array out-of-bounds,
//     division by zero), and
//   - an exploitability estimate per site: the fraction of the input space
//     that triggers it (via sampling; exact model counting is available
//     through counter.h for narrow widths).
#ifndef SRC_SYMEXEC_EXECUTOR_H_
#define SRC_SYMEXEC_EXECUTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/lang/ir.h"
#include "src/metrics/feature_vector.h"
#include "src/support/rng.h"
#include "src/symexec/expr.h"

namespace symx {

struct SymExecOptions {
  int width = 16;                   // Bitvector width for symbolic values.
  uint64_t max_paths = 256;         // Stop forking after this many paths end.
  uint64_t max_steps_per_path = 4096;
  // Global instruction budget across all paths of one Explore call; stops
  // runaway exploration even when individual paths stay under their limit.
  uint64_t max_total_steps = 1 << 17;
  // Global SAT-query budget; once exhausted, feasibility checks degrade to
  // "assume feasible" (sound for exploration, may over-report paths) and
  // exploitability estimation falls back to pure sampling.
  uint64_t max_solver_queries = 4096;
  int max_call_depth = 8;
  int max_symbolic_array = 32;      // ITE-expand arrays up to this size.
  // Expressions whose tree size exceeds this are concretized into fresh
  // variables (KLEE-style), keeping bit-blasting cost bounded on
  // loop-carried arithmetic chains.
  uint32_t max_expr_nodes = 512;
  uint64_t solver_conflict_budget = 5000;
  // Incremental solving (the default): each Explore keeps ONE persistent
  // SatSolver + BitBlaster, encodes every path constraint once behind a
  // fresh activation literal (act → constraint), and checks feasibility of
  // the current prefix with Solve(assumptions = {act₀…actₖ}). Learned
  // clauses and the CNF encoding survive across the thousands of queries one
  // exploration issues. `false` rebuilds a fresh solver per query — the
  // one-shot reference oracle the equivalence tests compare against; both
  // modes produce identical path counts, vuln sites, and exploitability
  // estimates (every verdict is sound and complete under the budgets).
  bool incremental_solver = true;
  // Recycle one persistent SatSolver per worker thread across Explore calls:
  // the exploration leases the thread-local solver session and Reset()s it
  // to a logically fresh state before use, so a scheduler draining many
  // queued path queries back-to-back pays the solver's allocator growth once
  // per thread instead of once per exploration. Behaviour is bit-identical
  // to constructing a fresh solver (Reset restores the constructed state);
  // `false` forces a brand-new instance per exploration, and a nested
  // exploration on the same thread falls back to an owned instance.
  bool reuse_solver_session = true;
  // Range-guided path pruning: track disjoint value sets implied by the
  // path condition (see range_eval.h) and decide branch deltas with interval
  // arithmetic before consulting the SAT solver. Decided branches skip their
  // feasibility query entirely (counted in SymExecResult::range_pruned);
  // undecided ones fall through to the solver, so semantic results — path
  // counts, vulnerability sites, exploit fractions — are unchanged. `false`
  // gives the solver-every-branch reference behaviour the equivalence tests
  // and the bench harness compare against.
  bool range_pruning = true;
  // Exploitability estimation: try exact projected model counting up to this
  // many models, then fall back to Monte-Carlo sampling.
  uint64_t exploit_exact_cap = 64;
  int exploit_sample_trials = 512;  // Monte-Carlo trials per vulnerability.
  // SymexFeatures explores at most this many entry functions per module
  // (call-graph roots beyond the cap are skipped, keeping per-file cost
  // bounded on large generated modules).
  int max_entries = 8;
  uint64_t rng_seed = 0x5ec0de;
  // Cooperative watchdog: per-entry step budget (0 = unlimited). Each
  // Explore owns its own deadline, so expiry is a pure function of that
  // entry's work and results stay bit-identical at any thread count; expiry
  // throws support::DeadlineExceeded for the stage wrapper to downgrade.
  uint64_t watchdog_steps = 0;
  // Retry salt mixed into solver-query fault-injection verdicts. Carried in
  // the options (not thread-local state) because entry explorations fan out
  // onto pool workers that do not inherit the caller's attempt context.
  uint32_t fault_salt = 0;
};

enum class VulnKind : uint8_t { kOutOfBounds, kDivByZero };

const char* VulnKindName(VulnKind kind);

struct VulnSite {
  VulnKind kind = VulnKind::kOutOfBounds;
  std::string function;
  int line = 0;
  // Estimated fraction of the whole input space triggering this site
  // (maximum over the paths that reach it).
  double exploit_fraction = 0.0;
  // Number of distinct feasible paths on which the site was triggerable.
  uint64_t paths = 0;
};

struct SymExecResult {
  uint64_t paths_explored = 0;   // Paths run to a terminal state.
  uint64_t paths_completed = 0;  // Paths ending in a normal return.
  uint64_t paths_aborted = 0;    // Paths ending in abort().
  uint64_t paths_infeasible_assume = 0;
  uint64_t paths_faulted = 0;    // Paths that can only end in a fault (e.g.
                                 // an unavoidable out-of-bounds access).
  uint64_t paths_limited = 0;    // Paths cut by step/call-depth limits.
  bool path_limit_hit = false;   // max_paths exhausted (exploration partial).
  uint64_t forks = 0;
  uint64_t solver_queries = 0;
  // Feasibility checks decided by the constant-interval range domain without
  // a SAT query (options.range_pruning). Each is a solver call that never
  // happened; range_pruned / (range_pruned + solver_queries) is the prune
  // rate the bench harness reports.
  uint64_t range_pruned = 0;
  uint64_t sat_conflicts = 0;      // CDCL conflicts across all SAT work.
  uint64_t model_reuse_hits = 0;   // Feasibility proven by a cached model.
  uint64_t simplifier_folds = 0;   // Expressions resolved without interning.
  int symbolic_inputs = 0;       // input() sites turned into variables.
  std::vector<VulnSite> vulns;   // Deduplicated by (kind, line), sorted.

  double MaxExploitFraction() const;
};

// Explores `entry`. Scalar parameters of the entry function are also made
// symbolic (environment-controlled), matching how KLEE treats main's argv.
SymExecResult Explore(const lang::IrModule& module, const std::string& entry,
                      const SymExecOptions& options = {});

// Feature extraction: explores from main() when present, otherwise from
// every call-graph root, and summarises into "symx.*" features. Entries are
// explored in parallel on the global thread pool; each entry's exploration
// seeds its RNG via Rng::TaskSeed(options.rng_seed, entry_index), so the
// result is bit-identical at any CLAIR_THREADS value.
metrics::FeatureVector SymexFeatures(const lang::IrModule& module,
                                     const SymExecOptions& options = {});

// The entry functions SymexFeatures explores: main() when present, otherwise
// every call-graph root, capped at options.max_entries.
std::vector<std::string> SymexEntries(const lang::IrModule& module,
                                      const SymExecOptions& options);

// Explores entries[i] for each i in `indices`, fanned out on the global pool;
// results follow `indices`. Entry i always runs with RNG seed
// Rng::TaskSeed(options.rng_seed, i), so its result does not depend on which
// other indices ride along.
std::vector<SymExecResult> ExploreEntries(const lang::IrModule& module,
                                          const std::vector<std::string>& entries,
                                          const std::vector<size_t>& indices,
                                          const SymExecOptions& options);

// The "symx.*" fold over one result per entry, in entry order. Reads only the
// path, solver and simplifier counters and each vuln's kind and exploit
// fraction.
metrics::FeatureVector SymexFeaturesFromResults(const std::vector<SymExecResult>& results);

// Number of times an exploration recycled its thread's persistent solver
// session instead of constructing a fresh SatSolver (first lease on a thread
// does not count — nothing was reused yet). Monotonic and process-wide;
// tests read the delta across a call to assert session reuse engaged.
uint64_t SolverSessionReuseCount();

}  // namespace symx

#endif  // SRC_SYMEXEC_EXECUTOR_H_
