// Classic iterative dataflow analyses over the MiniC IR (§4.1: "data flow
// analysis can determine numbers of expressions or functions influencing the
// execution of other parts of the code").
//
// All analyses operate per-function on the CFG; they are flow-sensitive and
// reach a fixpoint via worklist iteration. Each analysis runs in one of two
// modes (see engine.h): the word-packed bitset + priority-worklist engine
// (default) or the original dense full-sweep implementation kept as a
// reference oracle. Both modes converge to the same unique least fixpoint,
// so every accessor returns bit-identical results in either mode; the
// dataflow_fixpoint bench and the randomized-CFG tests enforce this.
#ifndef SRC_DATAFLOW_ANALYSES_H_
#define SRC_DATAFLOW_ANALYSES_H_

#include <cstdint>
#include <vector>

#include "src/dataflow/engine.h"
#include "src/lang/ir.h"
#include "src/metrics/feature_vector.h"
#include "src/support/bitset.h"
#include "src/support/deadline.h"

namespace dataflow {

// A definition site: instruction `instr_index` in block `block` writes
// register `reg`.
struct DefSite {
  lang::BlockId block = 0;
  int instr_index = 0;
  lang::RegId reg = lang::kNoReg;
};

// Reaching definitions: for each block, the set of definition sites live on
// entry. Sets are word-packed bit rows indexed by definition id. `cfg`, when
// given, must view the same function (it is shared across analyses by
// DataflowFeatures); otherwise one is built internally.
class ReachingDefinitions {
 public:
  explicit ReachingDefinitions(const lang::IrFunction& fn,
                               const CfgView* cfg = nullptr,
                               DataflowMode mode = DataflowMode::kEngine);

  const std::vector<DefSite>& definitions() const { return defs_; }
  // Bit i set => definition i reaches the entry of `block`.
  support::ConstBitSpan InSet(lang::BlockId block) const {
    return in_.Row(static_cast<size_t>(block));
  }
  // Definitions of `reg` reaching the entry of `block`.
  int CountReaching(lang::BlockId block, lang::RegId reg) const;
  // Mean number of distinct defs per (block, used reg) pair — a
  // def-use-breadth summary feature.
  double MeanReachingPerUse() const;

 private:
  void BuildEngine(const CfgView& cfg);
  void BuildReference(const CfgView& cfg);

  const lang::IrFunction& fn_;
  std::vector<DefSite> defs_;
  support::BitMatrix in_;  // blocks × defs, filled by either mode.
};

// Live variables (backward may-analysis).
class Liveness {
 public:
  explicit Liveness(const lang::IrFunction& fn, const CfgView* cfg = nullptr,
                    DataflowMode mode = DataflowMode::kEngine);

  // True if `reg` is live on entry to `block`.
  bool LiveIn(lang::BlockId block, lang::RegId reg) const {
    return live_in_.Row(static_cast<size_t>(block)).Test(static_cast<size_t>(reg));
  }
  // Maximum number of simultaneously live registers at any block entry.
  int MaxLiveAtEntry() const;

 private:
  void BuildEngine(const lang::IrFunction& fn, const CfgView& cfg);
  void BuildReference(const lang::IrFunction& fn, const CfgView& cfg);

  support::BitMatrix live_in_;  // blocks × regs.
};

// Dominator tree via the classic iterative algorithm.
class Dominators {
 public:
  explicit Dominators(const lang::IrFunction& fn, const CfgView* cfg = nullptr,
                      DataflowMode mode = DataflowMode::kEngine);

  // Immediate dominator; entry's idom is itself. -1 for unreachable blocks.
  lang::BlockId Idom(lang::BlockId block) const {
    return idom_[static_cast<size_t>(block)];
  }
  bool Dominates(lang::BlockId a, lang::BlockId b) const {
    return DominatesInTree(idom_, a, b);
  }
  // Depth of the dominator tree (longest chain).
  int TreeDepth() const;

  // Guarded idom-chain walk: returns whether `a` dominates `b` in the given
  // idom array, walking at most idom.size() steps so a malformed idom cycle
  // (e.g. state corrupted under fault injection) degrades to `false` instead
  // of hanging. Exposed for the guard test.
  static bool DominatesInTree(const std::vector<lang::BlockId>& idom,
                              lang::BlockId a, lang::BlockId b);

 private:
  void BuildEngine(const CfgView& cfg);
  void BuildReference(const CfgView& cfg);

  std::vector<lang::BlockId> idom_;
};

// Taint: registers (transitively) derived from input() — flow-sensitive,
// with a fixpoint across loops, unlike the lint-grade pass in metrics.
struct TaintSummary {
  long long tainted_instructions = 0;  // Instructions with a tainted operand.
  long long tainted_branches = 0;      // Conditional branches on tainted data.
  long long tainted_array_indices = 0; // Array accesses indexed by taint.
  long long tainted_sinks = 0;         // sink() calls receiving tainted data.
  long long tainted_call_args = 0;     // Tainted values crossing call edges.
  long long input_sites = 0;           // Number of input() instructions.
};

TaintSummary AnalyzeTaint(const lang::IrFunction& fn, const CfgView* cfg = nullptr,
                          DataflowMode mode = DataflowMode::kEngine);

// One function's dataflow payload, in the slot order the fold reads it:
// mean reaching definitions per use, max live registers, dominator-tree
// depth, then the six TaintSummary counts in declaration order.
inline constexpr size_t kDataflowRowSize = 9;
std::vector<double> DataflowRow(const lang::IrFunction& fn,
                                DataflowMode mode = DataflowMode::kEngine);

// Aggregates all dataflow-derived features for a module into the shared
// FeatureVector namespace "dataflow.*". `deadline`, when given, is ticked
// once per analyzed block so the caller's watchdog can bound runaway
// modules; expiry throws support::DeadlineExceeded. The tick accounting is
// mode-independent, so a step budget trips at the same logical point in
// either mode and feature rows stay byte-identical.
metrics::FeatureVector DataflowFeatures(const lang::IrModule& module,
                                        support::Deadline* deadline = nullptr,
                                        DataflowMode mode = DataflowMode::kEngine);

// DataflowFeatures with each function's payload supplied by `row_of`
// (DataflowRow, or a stored copy of it): the fault check, the per-function
// deadline tick, and the fold, in IR function order.
metrics::FeatureVector DataflowFeaturesFromRows(const lang::IrModule& module,
                                                support::Deadline* deadline,
                                                const FunctionRowFn& row_of);

}  // namespace dataflow

#endif  // SRC_DATAFLOW_ANALYSES_H_
