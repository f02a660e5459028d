// Shared dataflow kernel: per-function CFG facts computed once, plus a
// priority-worklist fixpoint driver reused by every dataflow client.
//
// Before this kernel existed, each analysis recomputed reverse post-order and
// predecessor lists itself and iterated `while (changed)` sweeps over the
// whole CFG. The kernel replaces that with:
//
//   - CfgView: RPO, RPO indices, predecessor/successor lists, and back-edge
//     (widening) targets, computed once per function and shared by
//     ReachingDefinitions / Liveness / Dominators / AnalyzeTaint /
//     AnalyzeIntervals;
//   - FixpointEngine: a worklist keyed by RPO position (reverse RPO for
//     backward problems) with per-block dirty bits, so only blocks whose
//     inputs actually changed are revisited. For the monotone set problems it
//     drives, chaotic iteration converges to the same unique least fixpoint
//     as the reference full-program sweeps — scheduling affects time, never
//     results.
//
// Every analysis keeps its original dense implementation behind
// DataflowMode::kReference as an oracle; randomized-CFG tests and the
// dataflow_fixpoint bench cross-check the two modes.
#ifndef SRC_DATAFLOW_ENGINE_H_
#define SRC_DATAFLOW_ENGINE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/lang/ir.h"
#include "src/support/deadline.h"

namespace dataflow {

enum class DataflowMode {
  kEngine,     // Word-packed bitsets + priority worklist (default).
  kReference,  // Original dense full-sweep implementations (oracle).
};

// Supplies one function's flat payload row to a module-level fold: the
// analysis itself, or a stored copy of its output.
using FunctionRowFn = std::function<std::vector<double>(const lang::IrFunction&)>;

// CFG facts computed once per function and shared across all analyses.
struct CfgView {
  explicit CfgView(const lang::IrFunction& fn);

  bool Reachable(lang::BlockId block) const {
    return rpo_index[static_cast<size_t>(block)] >= 0;
  }

  const lang::IrFunction* fn = nullptr;
  size_t num_blocks = 0;
  // Reachable blocks in reverse post-order; empty for zero-block functions.
  std::vector<lang::BlockId> rpo;
  // Block -> position in `rpo`, -1 for unreachable blocks.
  std::vector<int32_t> rpo_index;
  std::vector<std::vector<lang::BlockId>> preds;
  std::vector<std::vector<lang::BlockId>> succs;
  // Back-edge targets (u->v with rpo(u) >= rpo(v)): widening points for the
  // interval analysis.
  std::vector<bool> widen_point;
};

// Min-heap worklist over RPO positions with per-entry dirty bits; a block
// already queued is never queued twice, and the lowest-priority (earliest in
// iteration order) block is always processed next.
class PriorityWorklist {
 public:
  explicit PriorityWorklist(size_t size) : queued_(size, false) {}

  void Push(int32_t position) {
    if (queued_[static_cast<size_t>(position)]) {
      return;
    }
    queued_[static_cast<size_t>(position)] = true;
    heap_.push_back(position);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<int32_t>());
  }

  int32_t Pop() {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<int32_t>());
    const int32_t position = heap_.back();
    heap_.pop_back();
    queued_[static_cast<size_t>(position)] = false;
    return position;
  }

  bool Empty() const { return heap_.empty(); }

 private:
  std::vector<int32_t> heap_;
  std::vector<bool> queued_;
};

// Priority-worklist driver. `transfer(block)` recomputes one block's facts
// and returns true when the block's *output* changed; the engine then queues
// the block's dependents (successors for forward problems, predecessors for
// backward ones). Iteration order is a pure function of the CFG, so results
// are deterministic.
class FixpointEngine {
 public:
  enum class Direction { kForward, kBackward };

  // `include_unreachable` appends blocks outside the RPO (dead code) to the
  // iteration order — after the reachable blocks, in descending numeric order
  // for backward problems and ascending for forward ones — with dependency
  // edges spanning the whole graph. Liveness needs this: the reference
  // full-graph sweep assigns live-in facts to unreachable blocks (which can
  // branch into live code), and those facts feed MaxLiveAtEntry.
  FixpointEngine(const CfgView& cfg, Direction direction,
                 bool include_unreachable = false);

  // Runs to fixpoint. Every block is visited at least once: the first pass
  // walks the iteration order directly (no heap traffic), queueing only the
  // already-visited dependents of blocks whose output changed; the drain
  // phase then processes stragglers in priority order. `deadline`, when
  // given, is ticked once per visit under the given stage tag.
  template <typename Transfer>
  void Run(Transfer&& transfer, support::Deadline* deadline = nullptr,
           const char* stage = "dataflow") {
    PriorityWorklist worklist(order_.size());
    for (size_t position = 0; position < order_.size(); ++position) {
      if (deadline != nullptr) {
        deadline->TickOrThrow(stage);
      }
      if (transfer(order_[position])) {
        for (const int32_t dependent : deps_[position]) {
          // Dependents still ahead in this pass get visited anyway.
          if (dependent <= static_cast<int32_t>(position)) {
            worklist.Push(dependent);
          }
        }
      }
    }
    while (!worklist.Empty()) {
      const int32_t position = worklist.Pop();
      if (deadline != nullptr) {
        deadline->TickOrThrow(stage);
      }
      if (transfer(order_[static_cast<size_t>(position)])) {
        for (const int32_t dependent : deps_[static_cast<size_t>(position)]) {
          worklist.Push(dependent);
        }
      }
    }
  }

 private:
  // Reachable blocks in iteration order (RPO forward, reverse RPO backward).
  std::vector<lang::BlockId> order_;
  // Per position, the positions to re-queue when that block's output changes.
  std::vector<std::vector<int32_t>> deps_;
};

}  // namespace dataflow

#endif  // SRC_DATAFLOW_ENGINE_H_
