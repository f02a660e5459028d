#include "src/symexec/sat.h"

#include <algorithm>
#include <cmath>

namespace symx {
namespace {

// Luby restart sequence scaled by `unit`.
uint64_t Luby(uint64_t i) {
  // Find the finite subsequence containing i, then recurse.
  uint64_t k = 1;
  while ((1ULL << (k + 1)) - 1 < i + 1) {
    ++k;
  }
  while (true) {
    if ((1ULL << k) - 1 == i + 1) {
      return 1ULL << (k - 1);
    }
    i = i + 1 - (1ULL << (k - 1)) - 1;
    k = 1;
    while ((1ULL << (k + 1)) - 1 < i + 1) {
      ++k;
    }
  }
}

// The VSIDS heap order on (activity, var) pairs: lower activity first, ties
// broken toward the higher variable index, so the heap's maximum is unique
// and decisions are deterministic. The sift loops keep the moving variable's
// activity in a register instead of re-reading it per level.
bool ActivityLess(double act_a, Var a, double act_b, Var b) {
  return act_a < act_b || (act_a == act_b && a > b);
}

}  // namespace

Var SatSolver::NewVar() {
  const Var var = static_cast<Var>(vardata_.size());
  lit_value_.push_back(kUndef);
  lit_value_.push_back(kUndef);
  vardata_.push_back({kNoReason, 0});
  activity_.push_back(0.0);
  polarity_.push_back(true);
  seen_.push_back(false);
  watches_.emplace_back();
  watches_.emplace_back();
  order_.index.push_back(-1);
  query_order_.index.push_back(-1);
  decision_stamp_.push_back(0);
  return var;
}

void SatSolver::Reset() {
  // clear() keeps each vector's capacity, so a recycled solver re-grows into
  // memory it already owns. Every member that NewVar/AddClause/Solve mutate
  // must be restored to its constructed value here — a missed field would
  // leak state between queued explorations and break bit-identity with a
  // fresh solver.
  arena_.clear();
  watches_.clear();
  lit_value_.clear();
  vardata_.clear();
  trail_.clear();
  trail_lim_.clear();
  installed_.clear();
  propagate_head_ = 0;
  activity_.clear();
  order_.heap.clear();
  order_.index.clear();
  query_order_.heap.clear();
  query_order_.index.clear();
  decision_stamp_.clear();
  decision_epoch_ = 0;
  restricted_ = false;
  solving_ = false;
  polarity_.clear();
  activity_inc_ = 1.0;
  max_activity_ = 0.0;
  model_.clear();
  seen_.clear();
  trivially_unsat_ = false;
  num_learnt_ = 0;
  learnt_limit_ = 2048;
  stats_conflicts_ = 0;
  stats_decisions_ = 0;
  stats_propagations_ = 0;
}

void SatSolver::HeapBuild(VarOrderHeap& h, std::vector<Var> vars) {
  for (const Var v : h.heap) {
    h.index[static_cast<size_t>(v)] = -1;
  }
  h.heap = std::move(vars);
  for (size_t i = 0; i < h.heap.size(); ++i) {
    h.index[static_cast<size_t>(h.heap[i])] = static_cast<int>(i);
  }
  // Bottom-up heapify: O(n), cheaper than n inserts.
  for (size_t i = h.heap.size() / 2; i-- > 0;) {
    HeapSiftDown(h, i);
  }
}

void SatSolver::HeapSiftUp(VarOrderHeap& h, size_t i) {
  Var* heap = h.heap.data();
  int* index = h.index.data();
  const double* activity = activity_.data();
  const Var var = heap[i];
  const double var_act = activity[var];
  while (i > 0) {
    const size_t parent = (i - 1) / 2;
    const Var pv = heap[parent];
    if (!ActivityLess(activity[pv], pv, var_act, var)) {
      break;
    }
    heap[i] = pv;
    index[pv] = static_cast<int>(i);
    i = parent;
  }
  heap[i] = var;
  index[var] = static_cast<int>(i);
}

void SatSolver::HeapSiftDown(VarOrderHeap& h, size_t i) {
  Var* heap = h.heap.data();
  int* index = h.index.data();
  const double* activity = activity_.data();
  const size_t n = h.heap.size();
  const Var var = heap[i];
  const double var_act = activity[var];
  for (;;) {
    size_t child = 2 * i + 1;
    if (child >= n) {
      break;
    }
    Var cv = heap[child];
    double child_act = activity[cv];
    if (child + 1 < n) {
      const Var rv = heap[child + 1];
      const double right_act = activity[rv];
      if (ActivityLess(child_act, cv, right_act, rv)) {
        ++child;
        cv = rv;
        child_act = right_act;
      }
    }
    if (!ActivityLess(var_act, var, child_act, cv)) {
      break;
    }
    heap[i] = cv;
    index[cv] = static_cast<int>(i);
    i = child;
  }
  heap[i] = var;
  index[var] = static_cast<int>(i);
}

void SatSolver::HeapInsert(VarOrderHeap& h, Var var) {
  if (h.index[static_cast<size_t>(var)] != -1) {
    return;
  }
  h.heap.push_back(var);
  HeapSiftUp(h, h.heap.size() - 1);
}

Var SatSolver::HeapPopMax(VarOrderHeap& h) {
  const Var top = h.heap[0];
  h.index[static_cast<size_t>(top)] = -1;
  const Var last = h.heap.back();
  h.heap.pop_back();
  if (!h.heap.empty()) {
    h.heap[0] = last;
    h.index[static_cast<size_t>(last)] = 0;
    HeapSiftDown(h, 0);
  }
  return top;
}

void SatSolver::AddClause(std::vector<Lit> clause) {
  // Clauses are added at decision level 0, so the current assignment is
  // permanent: satisfied clauses can be dropped and false literals removed.
  // This drops any assumption levels kept from the previous Solve call.
  Backtrack(0);
  installed_.clear();
  size_t keep = 0;
  for (const Lit lit : clause) {
    const LBool v = Value(lit);
    if (v == kTrue) {
      return;  // Permanently satisfied.
    }
    if (v == kUndef) {
      clause[keep++] = lit;
    }
  }
  clause.resize(keep);
  // Simplify: drop duplicate literals; detect tautologies.
  std::sort(clause.begin(), clause.end());
  clause.erase(std::unique(clause.begin(), clause.end()), clause.end());
  for (size_t i = 0; i + 1 < clause.size(); ++i) {
    if (clause[i] == Negate(clause[i + 1])) {
      return;  // Tautology — always satisfied.
    }
  }
  if (clause.empty()) {
    trivially_unsat_ = true;
    return;
  }
  if (clause.size() == 1) {
    // Root-level unit: enqueue directly at level 0.
    const Lit lit = clause[0];
    if (Value(lit) == kFalse) {
      trivially_unsat_ = true;
      return;
    }
    if (Value(lit) == kUndef) {
      Enqueue(lit, kNoReason);
      if (Propagate() != kNoReason) {
        trivially_unsat_ = true;
      }
    }
    return;
  }
  // Watch the two HIGHEST literals (descending order): for the executor's
  // activation clauses {~act, bits...} those are the constraint's own newest
  // gate variables rather than input-variable bits shared by every other
  // constraint's cone, so unrelated queries never walk this clause's watches.
  std::reverse(clause.begin(), clause.end());
  AttachClause(AllocClause(clause, false));
}

void SatSolver::AddBlockingClause(std::vector<Lit> clause) {
  // Simplify against permanent (root-level) facts only — deeper assignments
  // are transient.
  size_t keep = 0;
  for (const Lit lit : clause) {
    if (Value(lit) != kUndef && vardata_[static_cast<size_t>(LitVar(lit))].level == 0) {
      if (Value(lit) == kTrue) {
        return;  // Permanently satisfied.
      }
      continue;  // Permanently false.
    }
    clause[keep++] = lit;
  }
  clause.resize(keep);
  // Backjump instead of rewinding to the assumption prefix: keep every trail
  // level that leaves the clause with at least one non-false literal. Called
  // right after a kSat (all literals false), this unwinds just past the
  // deepest decision the blocked model depended on, so the next Solve with
  // the same assumptions RESUMES the search mid-trail instead of re-deciding
  // the whole cone for every enumerated model.
  int lmax = 0;
  int lsecond = 0;
  int at_max = 0;
  for (const Lit lit : clause) {
    if (Value(lit) != kFalse) {
      continue;
    }
    const int l = vardata_[static_cast<size_t>(LitVar(lit))].level;
    if (l > lmax) {
      lsecond = lmax;
      lmax = l;
      at_max = 1;
    } else if (l == lmax) {
      ++at_max;
    } else {
      lsecond = std::max(lsecond, l);
    }
  }
  // One literal at the deepest level: unwind to the second-deepest and the
  // clause becomes unit there. Several: unwind one level below the deepest
  // (they all unassign together). Never disturb the assumption levels.
  int target = at_max <= 1 ? lsecond : std::max(lmax - 1, 0);
  target = std::max(target, static_cast<int>(installed_.size()));
  Backtrack(target);
  std::sort(clause.begin(), clause.end());
  clause.erase(std::unique(clause.begin(), clause.end()), clause.end());
  for (size_t i = 0; i + 1 < clause.size(); ++i) {
    if (clause[i] == Negate(clause[i + 1])) {
      return;  // Tautology.
    }
  }
  if (clause.size() <= 1) {
    // Degenerate (empty or root-unit): the prefix is not worth preserving —
    // reuse AddClause's root-level handling.
    Backtrack(0);
    installed_.clear();
    AddClause(std::move(clause));
    return;
  }
  // Watch two literals that are not false under the kept prefix (partition
  // non-false literals to the front). Watching a false literal would let its
  // already-happened falsification go unnoticed.
  size_t non_false = 0;
  for (size_t i = 0; i < clause.size(); ++i) {
    if (Value(clause[i]) != kFalse) {
      std::swap(clause[non_false++], clause[i]);
    }
  }
  if (non_false == 0) {
    // Conflicts with the assumption prefix itself: give up the prefix. After
    // Backtrack(0) every remaining literal is unassigned, so a normal attach
    // is valid and the next Solve discovers the (now-unsuppressed) conflict.
    Backtrack(0);
    installed_.clear();
    AttachClause(AllocClause(clause, false));
    return;
  }
  const CRef cr = AllocClause(clause, false);
  AttachClause(cr);
  if (non_false == 1) {
    // Unit under the prefix: propagate now so the next Solve resumes from a
    // fixpoint. A conflict here means the prefix is exhausted — fall back to
    // root and let the next Solve return kUnsat through its entry path.
    const Lit unit = clause[0];
    if (Value(unit) == kUndef) {
      Enqueue(unit, cr);
      if (Propagate() != kNoReason) {
        Backtrack(0);
        installed_.clear();
      }
    }
  }
}

SatSolver::CRef SatSolver::AllocClause(const std::vector<Lit>& lits, bool learnt) {
  const auto cr = static_cast<CRef>(arena_.size());
  arena_.push_back(static_cast<Lit>(lits.size() << 1 | (learnt ? 1 : 0)));
  arena_.insert(arena_.end(), lits.begin(), lits.end());
  return cr;
}

void SatSolver::AttachClause(CRef cr) {
  const Lit* lits = ClauseLits(cr);
  const int32_t tagged = cr << 1 | (ClauseSize(cr) == 2 ? 1 : 0);
  watches_[static_cast<size_t>(lits[0])].push_back({tagged, lits[1]});
  watches_[static_cast<size_t>(lits[1])].push_back({tagged, lits[0]});
}

void SatSolver::Enqueue(Lit lit, CRef reason) {
  lit_value_[static_cast<size_t>(lit)] = kTrue;
  lit_value_[static_cast<size_t>(Negate(lit))] = kFalse;
  vardata_[static_cast<size_t>(LitVar(lit))] = {reason, static_cast<int>(trail_lim_.size())};
  trail_.push_back(lit);
}

SatSolver::CRef SatSolver::Propagate() {
  // Neither buffer grows while propagating, so the loop keeps their
  // addresses in registers instead of reloading them after every Enqueue.
  const LBool* const values = lit_value_.data();
  Lit* const arena = arena_.data();
  while (propagate_head_ < trail_.size()) {
    const Lit lit = trail_[propagate_head_++];
    ++stats_propagations_;
    // Clauses watching ~lit must find a new watch or propagate/conflict.
    const Lit false_lit = Negate(lit);
    auto& watch_list = watches_[static_cast<size_t>(false_lit)];
    Watcher* i = watch_list.data();
    Watcher* j = i;
    Watcher* const end = i + watch_list.size();
    while (i != end) {
      const Watcher w = *i++;
      // Blocker fast path: a true blocker proves the clause satisfied
      // without loading the clause itself.
      const LBool blocker_value = values[w.blocker];
      if (blocker_value == kTrue) {
        *j++ = w;
        continue;
      }
      const CRef cr = w.cref();
      if (w.binary()) {
        // The blocker is the other literal: unit or conflict, decided
        // without touching clause memory.
        *j++ = w;
        if (blocker_value == kFalse) {
          // Leave the clause as [other, false_lit], the order Analyze walks
          // a conflict clause in.
          Lit* lits = arena + cr + 1;
          lits[0] = w.blocker;
          lits[1] = false_lit;
          while (i != end) {
            *j++ = *i++;
          }
          watch_list.resize(static_cast<size_t>(j - watch_list.data()));
          propagate_head_ = trail_.size();
          return cr;
        }
        Enqueue(w.blocker, cr);
        continue;
      }
      Lit* lits = arena + cr + 1;
      // Normalise: watched literal in position 1.
      if (lits[0] == false_lit) {
        lits[0] = lits[1];
        lits[1] = false_lit;
      }
      const Lit first = lits[0];
      if (values[first] == kTrue) {
        *j++ = {w.tagged, first};  // Satisfied; cache as blocker.
        continue;
      }
      // Look for a replacement watch.
      const uint32_t size = static_cast<uint32_t>(arena[cr]) >> 1;
      bool found = false;
      for (uint32_t k = 2; k < size; ++k) {
        if (values[lits[k]] != kFalse) {
          lits[1] = lits[k];
          lits[k] = false_lit;
          watches_[static_cast<size_t>(lits[1])].push_back({w.tagged, first});
          found = true;
          break;
        }
      }
      if (found) {
        continue;  // Watch moved; drop from this list.
      }
      // Unit or conflict.
      *j++ = {w.tagged, first};
      if (values[first] == kFalse) {
        // Conflict: restore remaining watches and report.
        while (i != end) {
          *j++ = *i++;
        }
        watch_list.resize(static_cast<size_t>(j - watch_list.data()));
        propagate_head_ = trail_.size();
        return cr;
      }
      Enqueue(first, cr);
    }
    watch_list.resize(static_cast<size_t>(j - watch_list.data()));
  }
  return kNoReason;
}

void SatSolver::BoostActivity(Var var) {
  activity_[static_cast<size_t>(var)] = max_activity_ + activity_inc_;
  max_activity_ = activity_[static_cast<size_t>(var)];
  if (max_activity_ > 1e100) {
    for (double& a : activity_) {
      a *= 1e-100;
    }
    activity_inc_ *= 1e-100;
    max_activity_ *= 1e-100;
  }
  // No heap fixup: boosts happen between Solve calls, and each call
  // heapifies its candidate set on entry.
}

void SatSolver::BumpVar(Var var) {
  activity_[static_cast<size_t>(var)] += activity_inc_;
  max_activity_ = std::max(max_activity_, activity_[static_cast<size_t>(var)]);
  if (activity_[static_cast<size_t>(var)] > 1e100) {
    // Uniform rescale preserves the heap order; no re-heapify needed.
    for (double& a : activity_) {
      a *= 1e-100;
    }
    activity_inc_ *= 1e-100;
    max_activity_ *= 1e-100;
  }
  VarOrderHeap& heap = restricted_ ? query_order_ : order_;
  if (heap.index[static_cast<size_t>(var)] != -1) {
    HeapSiftUp(heap, static_cast<size_t>(heap.index[static_cast<size_t>(var)]));
  }
}

void SatSolver::DecayActivities() { activity_inc_ /= 0.95; }

void SatSolver::Analyze(CRef conflict, std::vector<Lit>& learnt, int& backtrack_level) {
  learnt.clear();
  learnt.push_back(0);  // Placeholder for the asserting literal.
  int counter = 0;
  Lit p = -1;
  int index = static_cast<int>(trail_.size()) - 1;
  const int current_level = static_cast<int>(trail_lim_.size());
  CRef cr = conflict;
  do {
    const Lit* lits = ClauseLits(cr);
    const uint32_t size = ClauseSize(cr);
    for (uint32_t k = 0; k < size; ++k) {
      const Lit q = lits[k];
      // Skip the implied literal itself (absent from the conflict clause).
      // Matched by value: a long reason holds it at position 0, but Propagate
      // never reorders a binary reason, so it may sit at either position.
      if (q == p) {
        continue;
      }
      const Var v = LitVar(q);
      const int level = vardata_[static_cast<size_t>(v)].level;
      if (!seen_[static_cast<size_t>(v)] && level > 0) {
        seen_[static_cast<size_t>(v)] = 1;
        BumpVar(v);
        if (level == current_level) {
          ++counter;
        } else {
          learnt.push_back(q);
        }
      }
    }
    // Find the next seen literal on the trail.
    while (!seen_[static_cast<size_t>(LitVar(trail_[static_cast<size_t>(index)]))]) {
      --index;
    }
    p = trail_[static_cast<size_t>(index)];
    cr = vardata_[static_cast<size_t>(LitVar(p))].reason;
    seen_[static_cast<size_t>(LitVar(p))] = 0;
    --counter;
    --index;
  } while (counter > 0);
  learnt[0] = Negate(p);

  // Compute backtrack level (second-highest level in the clause).
  backtrack_level = 0;
  for (size_t k = 1; k < learnt.size(); ++k) {
    backtrack_level = std::max(backtrack_level,
                               vardata_[static_cast<size_t>(LitVar(learnt[k]))].level);
  }
  // Move a literal of backtrack_level into position 1 for watching.
  for (size_t k = 1; k < learnt.size(); ++k) {
    if (vardata_[static_cast<size_t>(LitVar(learnt[k]))].level == backtrack_level) {
      std::swap(learnt[1], learnt[k]);
      break;
    }
  }
  for (const Lit q : learnt) {
    seen_[static_cast<size_t>(LitVar(q))] = 0;
  }
}

void SatSolver::Backtrack(int target_level) {
  if (static_cast<int>(trail_lim_.size()) <= target_level) {
    return;
  }
  const size_t bound = static_cast<size_t>(trail_lim_[static_cast<size_t>(target_level)]);
  for (size_t i = trail_.size(); i-- > bound;) {
    const Lit lit = trail_[i];
    const Var var = LitVar(lit);
    lit_value_[static_cast<size_t>(lit)] = kUndef;
    lit_value_[static_cast<size_t>(Negate(lit))] = kUndef;
    vardata_[static_cast<size_t>(var)].reason = kNoReason;
    // Back into the ACTIVE decision pool only; no heap is maintained outside
    // a Solve call (each call heapifies its candidate set on entry).
    if (restricted_) {
      if (decision_stamp_[static_cast<size_t>(var)] == decision_epoch_) {
        HeapInsert(query_order_, var);
      }
    } else if (solving_) {
      HeapInsert(order_, var);
    }
  }
  trail_.resize(bound);
  trail_lim_.resize(static_cast<size_t>(target_level));
  propagate_head_ = trail_.size();
}

Lit SatSolver::PickBranchLit() {
  // Pop heap entries until an unassigned variable surfaces (entries for
  // assigned vars are stale; Backtrack re-inserts on unassignment). A
  // restricted query draws only from its own decision set.
  VarOrderHeap& heap = restricted_ ? query_order_ : order_;
  while (!heap.heap.empty()) {
    const Var best = HeapPopMax(heap);
    if (Value(MakeLit(best, false)) != kUndef) {
      continue;
    }
    // Positive-first polarity by default: callers upstream (the symbolic
    // executor's solution cache) benefit from models with large variable
    // values, which stay valid across loop iterations. Activation literals
    // are marked negative-first via SetPolarity.
    return MakeLit(best, !polarity_[static_cast<size_t>(best)]);
  }
  return -1;
}

void SatSolver::ReduceLearnedDb() {
  // Must be at root level with propagation at fixpoint.
  size_t long_total = 0;
  for (CRef cr = 0; static_cast<size_t>(cr) < arena_.size(); cr += 1 + ClauseSize(cr)) {
    if (ClauseLearnt(cr) && ClauseSize(cr) > 3) {
      ++long_total;
    }
  }
  const size_t drop_budget = long_total / 2;
  size_t long_seen = 0;
  // Survivors are compacted into a fresh arena in arena order, so the
  // re-attach below rebuilds every watch list in clause-creation order.
  std::vector<Lit> kept;
  kept.reserve(arena_.size());
  num_learnt_ = 0;
  std::vector<Lit> units;
  for (CRef cr = 0; static_cast<size_t>(cr) < arena_.size(); cr += 1 + ClauseSize(cr)) {
    const uint32_t size = ClauseSize(cr);
    const bool learnt = ClauseLearnt(cr);
    if (learnt && size > 3 && ++long_seen <= drop_budget) {
      continue;  // Oldest long learned clauses go first.
    }
    // Root simplification: drop permanently satisfied clauses, strip
    // permanently false literals.
    const size_t header = kept.size();
    kept.push_back(0);
    bool satisfied = false;
    const Lit* lits = ClauseLits(cr);
    for (uint32_t k = 0; k < size; ++k) {
      const LBool v = Value(lits[k]);
      if (v == kTrue) {
        satisfied = true;
        break;
      }
      if (v == kUndef) {
        kept.push_back(lits[k]);
      }
    }
    const size_t keep = kept.size() - header - 1;
    if (satisfied) {
      kept.resize(header);
      continue;
    }
    if (keep == 0) {
      trivially_unsat_ = true;
      return;
    }
    if (keep == 1) {
      units.push_back(kept.back());
      kept.resize(header);
      continue;
    }
    kept[header] = static_cast<Lit>(keep << 1 | (learnt ? 1 : 0));
    num_learnt_ += learnt ? 1 : 0;
  }
  arena_.swap(kept);
  for (auto& watch_list : watches_) {
    watch_list.clear();
  }
  for (CRef cr = 0; static_cast<size_t>(cr) < arena_.size(); cr += 1 + ClauseSize(cr)) {
    AttachClause(cr);
  }
  // Old clause references are gone; root-level facts need no reasons
  // (Analyze never dereferences level-0 reasons).
  for (const Lit lit : trail_) {
    vardata_[static_cast<size_t>(LitVar(lit))].reason = kNoReason;
  }
  for (const Lit lit : units) {
    if (Value(lit) == kFalse) {
      trivially_unsat_ = true;
      return;
    }
    if (Value(lit) == kUndef) {
      Enqueue(lit, kNoReason);
    }
  }
  if (Propagate() != kNoReason) {
    trivially_unsat_ = true;
  }
}

SatResult SatSolver::Solve(const std::vector<Lit>& assumptions, uint64_t max_conflicts,
                           const std::vector<Var>* decision_vars) {
  if (trivially_unsat_) {
    return SatResult::kUnsat;
  }
  if (num_learnt_ > learnt_limit_) {
    Backtrack(0);
    installed_.clear();
    if (Propagate() != kNoReason) {
      trivially_unsat_ = true;
      return SatResult::kUnsat;
    }
    ReduceLearnedDb();
    learnt_limit_ += learnt_limit_ / 2;
    if (trivially_unsat_) {
      return SatResult::kUnsat;
    }
  }
  // Trail reuse: a kSat exit leaves the assumption levels (and their
  // propagations) installed. Keep the longest prefix shared with this call's
  // assumptions — across the executor's DFS-ordered queries that skips
  // re-propagating most of the path condition. AddClause invalidates the
  // saved prefix (it backtracks to root).
  size_t lcp = 0;
  while (lcp < assumptions.size() && lcp < installed_.size() &&
         installed_[lcp] == assumptions[lcp]) {
    ++lcp;
  }
  if (lcp == assumptions.size() && lcp == installed_.size()) {
    // Identical assumption set: keep any deeper search levels too and resume
    // the previous search in place. Model enumeration lands here after
    // AddBlockingClause's backjump, turning the whole enumeration into one
    // continuing search rather than a from-scratch solve per model.
  } else {
    Backtrack(static_cast<int>(lcp));
    installed_.resize(lcp);
  }
  if (Propagate() != kNoReason) {
    if (trail_lim_.empty()) {
      trivially_unsat_ = true;
      return SatResult::kUnsat;
    }
    // The kept prefix (a prefix of this call's assumptions) is contradicted.
    Backtrack(0);
    installed_.clear();
    return SatResult::kUnsat;
  }
  // Install the remaining assumptions, each on its own decision level (a
  // level per assumption keeps levels aligned with assumption indices, which
  // the prefix-reuse bookkeeping relies on).
  for (size_t i = lcp; i < assumptions.size(); ++i) {
    const Lit a = assumptions[i];
    if (Value(a) == kFalse) {
      Backtrack(0);
      installed_.clear();
      return SatResult::kUnsat;
    }
    trail_lim_.push_back(static_cast<int>(trail_.size()));
    installed_.push_back(a);
    if (Value(a) == kUndef) {
      Enqueue(a, kNoReason);
      if (Propagate() != kNoReason) {
        Backtrack(0);
        installed_.clear();
        return SatResult::kUnsat;
      }
    }
  }
  const int assumption_level = static_cast<int>(assumptions.size());

  // Build this call's active decision heap (bottom-up heapify, O(n)). No heap
  // is kept current between calls: the executor's persistent solver issues
  // only restricted queries, so eagerly maintaining the full-instance heap on
  // every enqueue/backtrack was pure overhead.
  restricted_ = decision_vars != nullptr;
  if (restricted_) {
    ++decision_epoch_;
    std::vector<Var> candidates;
    candidates.reserve(decision_vars->size());
    for (const Var v : *decision_vars) {
      decision_stamp_[static_cast<size_t>(v)] = decision_epoch_;
      if (Value(MakeLit(v, false)) == kUndef) {
        candidates.push_back(v);
      }
    }
    HeapBuild(query_order_, std::move(candidates));
  } else {
    std::vector<Var> candidates;
    candidates.reserve(vardata_.size());
    for (Var v = 0; v < num_vars(); ++v) {
      if (Value(MakeLit(v, false)) == kUndef) {
        candidates.push_back(v);
      }
    }
    HeapBuild(order_, std::move(candidates));
  }
  solving_ = true;

  uint64_t conflicts_local = 0;
  uint64_t restart_count = 0;
  uint64_t restart_budget = 32 * Luby(restart_count);
  std::vector<Lit> learnt;
  for (;;) {
    const CRef conflict = Propagate();
    if (conflict != kNoReason) {
      ++stats_conflicts_;
      ++conflicts_local;
      if (static_cast<int>(trail_lim_.size()) <= assumption_level) {
        solving_ = false;
        restricted_ = false;
        Backtrack(0);
        installed_.clear();
        return SatResult::kUnsat;
      }
      if (max_conflicts != 0 && conflicts_local > max_conflicts) {
        solving_ = false;
        restricted_ = false;
        Backtrack(0);
        installed_.clear();
        return SatResult::kUnknown;
      }
      int backtrack_level;
      Analyze(conflict, learnt, backtrack_level);
      backtrack_level = std::max(backtrack_level, assumption_level);
      Backtrack(backtrack_level);
      if (learnt.size() == 1) {
        Enqueue(learnt[0], kNoReason);
      } else {
        const CRef cr = AllocClause(learnt, true);
        ++num_learnt_;
        AttachClause(cr);
        Enqueue(learnt[0], cr);
      }
      DecayActivities();
      if (conflicts_local >= restart_budget) {
        ++restart_count;
        restart_budget = conflicts_local + 32 * Luby(restart_count);
        Backtrack(assumption_level);
      }
      continue;
    }
    const Lit branch = PickBranchLit();
    if (branch == -1) {
      // Full assignment (or, restricted, full over the decision set — the
      // remainder is extendable, see the header contract): record the model.
      // The trail stays put so the next call can reuse the installed
      // assumption prefix.
      if (restricted_) {
        // Only the decision set has meaningful values, and restricted
        // callers only read those — skip the O(num_vars) sweep, which would
        // dominate on a persistent instance grown across a whole exploration.
        if (model_.size() < static_cast<size_t>(num_vars())) {
          model_.resize(static_cast<size_t>(num_vars()), false);
        }
        for (const Var v : *decision_vars) {
          model_[static_cast<size_t>(v)] = Value(MakeLit(v, false)) == kTrue;
        }
      } else {
        model_.assign(static_cast<size_t>(num_vars()), false);
        for (Var v = 0; v < num_vars(); ++v) {
          model_[static_cast<size_t>(v)] = Value(MakeLit(v, false)) == kTrue;
        }
      }
      solving_ = false;
      restricted_ = false;
      return SatResult::kSat;
    }
    ++stats_decisions_;
    trail_lim_.push_back(static_cast<int>(trail_.size()));
    Enqueue(branch, kNoReason);
  }
}

}  // namespace symx
