#include "src/dataflow/analyses.h"

#include <algorithm>
#include <optional>

#include "src/lang/ir_walk.h"
#include "src/support/fault_injection.h"

namespace dataflow {
namespace {

// Classic dense set union, kept for the reference oracle.
void SetUnion(std::vector<bool>& dst, const std::vector<bool>& src) {
  for (size_t i = 0; i < dst.size(); ++i) {
    if (src[i]) {
      dst[i] = true;
    }
  }
}

// Builds a CfgView on demand when the caller did not share one.
const CfgView& ViewOrLocal(const lang::IrFunction& fn, const CfgView* cfg,
                           std::optional<CfgView>& local) {
  if (cfg != nullptr) {
    return *cfg;
  }
  return local.emplace(fn);
}

}  // namespace

// --- Reaching definitions ----------------------------------------------------

ReachingDefinitions::ReachingDefinitions(const lang::IrFunction& fn,
                                         const CfgView* cfg, DataflowMode mode)
    : fn_(fn) {
  // Collect all definition sites in (block, instruction) order.
  for (size_t b = 0; b < fn.blocks.size(); ++b) {
    const auto& block = fn.blocks[b];
    for (size_t i = 0; i < block.instrs.size(); ++i) {
      if (lang::WritesDst(block.instrs[i])) {
        defs_.push_back({static_cast<lang::BlockId>(b), static_cast<int>(i),
                         block.instrs[i].dst});
      }
    }
  }
  in_ = support::BitMatrix(fn.blocks.size(), defs_.size());
  std::optional<CfgView> local;
  const CfgView& view = ViewOrLocal(fn, cfg, local);
  if (mode == DataflowMode::kEngine) {
    BuildEngine(view);
  } else {
    BuildReference(view);
  }
}

void ReachingDefinitions::BuildEngine(const CfgView& cfg) {
  const size_t num_blocks = fn_.blocks.size();
  const size_t num_defs = defs_.size();
  support::BitMatrix gen(num_blocks, num_defs);
  support::BitMatrix kill(num_blocks, num_defs);
  // Def-site buckets per register. Bucket entries inherit the global
  // (block, instruction) collection order, so each block's defs form one
  // contiguous run; gen/kill construction is O(defs + sum of bucket^2 per
  // register) instead of O(defs^2) over all pairs.
  std::vector<std::vector<uint32_t>> by_reg(static_cast<size_t>(fn_.reg_count));
  for (uint32_t d = 0; d < num_defs; ++d) {
    by_reg[static_cast<size_t>(defs_[d].reg)].push_back(d);
  }
  for (const auto& bucket : by_reg) {
    size_t i = 0;
    while (i < bucket.size()) {
      const lang::BlockId block = defs_[bucket[i]].block;
      size_t j = i;
      while (j < bucket.size() && defs_[bucket[j]].block == block) {
        ++j;
      }
      // The last def of the run generates; every same-register def outside
      // this block is killed here.
      gen.Row(static_cast<size_t>(block)).Set(bucket[j - 1]);
      auto kill_row = kill.Row(static_cast<size_t>(block));
      for (size_t k = 0; k < i; ++k) {
        kill_row.Set(bucket[k]);
      }
      for (size_t k = j; k < bucket.size(); ++k) {
        kill_row.Set(bucket[k]);
      }
      i = j;
    }
  }
  support::BitMatrix out(num_blocks, num_defs);
  support::BitSet new_in(num_defs);
  FixpointEngine engine(cfg, FixpointEngine::Direction::kForward);
  engine.Run([&](lang::BlockId b) {
    const auto bu = static_cast<size_t>(b);
    auto in_scratch = new_in.Span();
    in_scratch.ClearAll();
    for (const lang::BlockId p : cfg.preds[bu]) {
      in_scratch.UnionWith(out.Row(static_cast<size_t>(p)));
    }
    in_.Row(bu).AssignFrom(in_scratch);
    return out.Row(bu).AssignTransfer(in_scratch, kill.Row(bu), gen.Row(bu));
  });
}

void ReachingDefinitions::BuildReference(const CfgView& cfg) {
  const size_t num_defs = defs_.size();
  const size_t num_blocks = fn_.blocks.size();
  std::vector<std::vector<bool>> gen(num_blocks, std::vector<bool>(num_defs, false));
  std::vector<std::vector<bool>> kill(num_blocks, std::vector<bool>(num_defs, false));
  // Defs of the same register kill each other; the last def in a block
  // generates.
  for (size_t d = 0; d < num_defs; ++d) {
    const auto& site = defs_[d];
    // Is d the last def of its reg in its block?
    bool is_last = true;
    for (size_t e = 0; e < num_defs; ++e) {
      if (e != d && defs_[e].block == site.block && defs_[e].reg == site.reg &&
          defs_[e].instr_index > site.instr_index) {
        is_last = false;
        break;
      }
    }
    if (is_last) {
      gen[static_cast<size_t>(site.block)][d] = true;
    }
    for (size_t e = 0; e < num_defs; ++e) {
      if (defs_[e].reg == site.reg && defs_[e].block != site.block) {
        kill[static_cast<size_t>(site.block)][e] = true;
      }
    }
  }
  std::vector<std::vector<bool>> in(num_blocks, std::vector<bool>(num_defs, false));
  std::vector<std::vector<bool>> out(num_blocks, std::vector<bool>(num_defs, false));
  bool changed = true;
  while (changed) {
    changed = false;
    for (lang::BlockId b : cfg.rpo) {
      const auto bu = static_cast<size_t>(b);
      std::vector<bool> new_in(num_defs, false);
      for (lang::BlockId p : cfg.preds[bu]) {
        SetUnion(new_in, out[static_cast<size_t>(p)]);
      }
      std::vector<bool> new_out = new_in;
      for (size_t d = 0; d < num_defs; ++d) {
        if (kill[bu][d]) {
          new_out[d] = false;
        }
        if (gen[bu][d]) {
          new_out[d] = true;
        }
      }
      if (new_in != in[bu] || new_out != out[bu]) {
        in[bu] = std::move(new_in);
        out[bu] = std::move(new_out);
        changed = true;
      }
    }
  }
  for (size_t b = 0; b < num_blocks; ++b) {
    auto row = in_.Row(b);
    for (size_t d = 0; d < num_defs; ++d) {
      if (in[b][d]) {
        row.Set(d);
      }
    }
  }
}

int ReachingDefinitions::CountReaching(lang::BlockId block, lang::RegId reg) const {
  int count = 0;
  in_.Row(static_cast<size_t>(block)).ForEach([&](size_t d) {
    if (defs_[d].reg == reg) {
      ++count;
    }
  });
  return count;
}

double ReachingDefinitions::MeanReachingPerUse() const {
  long long total = 0;
  long long uses = 0;
  // Per-register running count, seeded from the block's in-set and updated
  // as the block's own definitions execute.
  std::vector<int> reaching(static_cast<size_t>(fn_.reg_count), 0);
  for (size_t b = 0; b < fn_.blocks.size(); ++b) {
    std::fill(reaching.begin(), reaching.end(), 0);
    in_.Row(b).ForEach(
        [&](size_t d) { ++reaching[static_cast<size_t>(defs_[d].reg)]; });
    for (const auto& instr : fn_.blocks[b].instrs) {
      lang::ForEachUse(instr, [&](lang::RegId reg) {
        total += reaching[static_cast<size_t>(reg)];
        ++uses;
      });
      if (lang::WritesDst(instr)) {
        reaching[static_cast<size_t>(instr.dst)] = 1;  // Strong update.
      }
    }
  }
  return uses == 0 ? 0.0 : static_cast<double>(total) / static_cast<double>(uses);
}

// --- Liveness ----------------------------------------------------------------

Liveness::Liveness(const lang::IrFunction& fn, const CfgView* cfg, DataflowMode mode) {
  live_in_ = support::BitMatrix(fn.blocks.size(), static_cast<size_t>(fn.reg_count));
  std::optional<CfgView> local;
  const CfgView& view = ViewOrLocal(fn, cfg, local);
  if (mode == DataflowMode::kEngine) {
    BuildEngine(fn, view);
  } else {
    BuildReference(fn, view);
  }
}

void Liveness::BuildEngine(const lang::IrFunction& fn, const CfgView& cfg) {
  const size_t num_blocks = fn.blocks.size();
  const size_t num_regs = static_cast<size_t>(fn.reg_count);
  support::BitMatrix use(num_blocks, num_regs);
  support::BitMatrix def(num_blocks, num_regs);
  for (size_t b = 0; b < num_blocks; ++b) {
    auto def_row = def.Row(b);
    auto use_row = use.Row(b);
    lang::ForEachUpwardExposed(
        fn.blocks[b],
        [&](lang::RegId r) { return def_row.Test(static_cast<size_t>(r)); },
        [&](lang::RegId r) { def_row.Set(static_cast<size_t>(r)); },
        [&](lang::RegId r) { use_row.Set(static_cast<size_t>(r)); });
  }
  support::BitSet new_out(num_regs);
  // Unreachable blocks carry live-in facts too (the reference sweeps the
  // whole block range), so the worklist covers them as well.
  FixpointEngine engine(cfg, FixpointEngine::Direction::kBackward,
                        /*include_unreachable=*/true);
  engine.Run([&](lang::BlockId b) {
    const auto bu = static_cast<size_t>(b);
    auto out_scratch = new_out.Span();
    out_scratch.ClearAll();
    for (const lang::BlockId succ : cfg.succs[bu]) {
      out_scratch.UnionWith(live_in_.Row(static_cast<size_t>(succ)));
    }
    // live_in = use ∪ (live_out \ def).
    return live_in_.Row(bu).AssignTransfer(out_scratch, def.Row(bu), use.Row(bu));
  });
}

void Liveness::BuildReference(const lang::IrFunction& fn, const CfgView& cfg) {
  const size_t num_blocks = fn.blocks.size();
  const size_t num_regs = static_cast<size_t>(fn.reg_count);
  std::vector<std::vector<bool>> use(num_blocks, std::vector<bool>(num_regs, false));
  std::vector<std::vector<bool>> def(num_blocks, std::vector<bool>(num_regs, false));
  for (size_t b = 0; b < num_blocks; ++b) {
    lang::ForEachUpwardExposed(
        fn.blocks[b],
        [&](lang::RegId r) -> bool { return def[b][static_cast<size_t>(r)]; },
        [&](lang::RegId r) { def[b][static_cast<size_t>(r)] = true; },
        [&](lang::RegId r) { use[b][static_cast<size_t>(r)] = true; });
  }
  std::vector<std::vector<bool>> live_in(num_blocks, std::vector<bool>(num_regs, false));
  std::vector<std::vector<bool>> live_out(num_blocks, std::vector<bool>(num_regs, false));
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t b = num_blocks; b-- > 0;) {
      std::vector<bool> new_out(num_regs, false);
      for (lang::BlockId succ : cfg.succs[b]) {
        SetUnion(new_out, live_in[static_cast<size_t>(succ)]);
      }
      std::vector<bool> new_in = use[b];
      for (size_t r = 0; r < num_regs; ++r) {
        if (new_out[r] && !def[b][r]) {
          new_in[r] = true;
        }
      }
      if (new_in != live_in[b] || new_out != live_out[b]) {
        live_in[b] = std::move(new_in);
        live_out[b] = std::move(new_out);
        changed = true;
      }
    }
  }
  for (size_t b = 0; b < num_blocks; ++b) {
    auto row = live_in_.Row(b);
    for (size_t r = 0; r < num_regs; ++r) {
      if (live_in[b][r]) {
        row.Set(r);
      }
    }
  }
}

int Liveness::MaxLiveAtEntry() const {
  int best = 0;
  for (size_t b = 0; b < live_in_.rows(); ++b) {
    best = std::max(best, static_cast<int>(live_in_.Row(b).Count()));
  }
  return best;
}

// --- Dominators --------------------------------------------------------------

Dominators::Dominators(const lang::IrFunction& fn, const CfgView* cfg,
                       DataflowMode mode) {
  idom_.assign(fn.blocks.size(), -1);
  if (fn.blocks.empty()) {
    return;
  }
  std::optional<CfgView> local;
  const CfgView& view = ViewOrLocal(fn, cfg, local);
  idom_[0] = 0;
  if (mode == DataflowMode::kEngine) {
    BuildEngine(view);
  } else {
    BuildReference(view);
  }
}

void Dominators::BuildEngine(const CfgView& cfg) {
  const auto& rpo_index = cfg.rpo_index;
  auto intersect = [&](lang::BlockId a, lang::BlockId b) {
    while (a != b) {
      while (rpo_index[static_cast<size_t>(a)] > rpo_index[static_cast<size_t>(b)]) {
        a = idom_[static_cast<size_t>(a)];
      }
      while (rpo_index[static_cast<size_t>(b)] > rpo_index[static_cast<size_t>(a)]) {
        b = idom_[static_cast<size_t>(b)];
      }
    }
    return a;
  };
  auto transfer = [&](lang::BlockId b) {
    if (b == 0) {
      return false;
    }
    lang::BlockId new_idom = -1;
    for (lang::BlockId p : cfg.preds[static_cast<size_t>(b)]) {
      if (idom_[static_cast<size_t>(p)] == -1) {
        continue;  // Unprocessed or unreachable predecessor.
      }
      new_idom = new_idom == -1 ? p : intersect(p, new_idom);
    }
    if (new_idom != -1 && idom_[static_cast<size_t>(b)] != new_idom) {
      idom_[static_cast<size_t>(b)] = new_idom;
      return true;
    }
    return false;
  };
  FixpointEngine engine(cfg, FixpointEngine::Direction::kForward);
  engine.Run(transfer);
  // Unlike the pure set problems, the idom-chain encoding means a block's
  // update reads chain ancestors that are not its CFG predecessors, so the
  // worklist's change propagation alone is not a proof of convergence.
  // Confirm with full sweeps until stable — almost always a single no-change
  // pass, and each sweep is the reference algorithm's own termination check,
  // so both modes end at the same (unique) dominator tree.
  bool changed = true;
  while (changed) {
    changed = false;
    for (lang::BlockId b : cfg.rpo) {
      changed |= transfer(b);
    }
  }
}

void Dominators::BuildReference(const CfgView& cfg) {
  const auto& rpo_index = cfg.rpo_index;
  auto intersect = [&](lang::BlockId a, lang::BlockId b) {
    while (a != b) {
      while (rpo_index[static_cast<size_t>(a)] > rpo_index[static_cast<size_t>(b)]) {
        a = idom_[static_cast<size_t>(a)];
      }
      while (rpo_index[static_cast<size_t>(b)] > rpo_index[static_cast<size_t>(a)]) {
        b = idom_[static_cast<size_t>(b)];
      }
    }
    return a;
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (lang::BlockId b : cfg.rpo) {
      if (b == 0) {
        continue;
      }
      lang::BlockId new_idom = -1;
      for (lang::BlockId p : cfg.preds[static_cast<size_t>(b)]) {
        if (idom_[static_cast<size_t>(p)] == -1) {
          continue;  // Unprocessed or unreachable predecessor.
        }
        new_idom = new_idom == -1 ? p : intersect(p, new_idom);
      }
      if (new_idom != -1 && idom_[static_cast<size_t>(b)] != new_idom) {
        idom_[static_cast<size_t>(b)] = new_idom;
        changed = true;
      }
    }
  }
}

bool Dominators::DominatesInTree(const std::vector<lang::BlockId>& idom,
                                 lang::BlockId a, lang::BlockId b) {
  if (b < 0 || static_cast<size_t>(b) >= idom.size() ||
      idom[static_cast<size_t>(b)] == -1) {
    return false;  // Unreachable.
  }
  lang::BlockId current = b;
  // A well-formed idom chain reaches the self-rooted entry in at most
  // idom.size() hops; anything longer is a malformed cycle and walks off as
  // "does not dominate" instead of spinning forever.
  for (size_t steps = 0; steps <= idom.size(); ++steps) {
    if (current == a) {
      return true;
    }
    const lang::BlockId next = idom[static_cast<size_t>(current)];
    if (next == current) {
      return false;  // Reached the entry without meeting `a`.
    }
    if (next < 0 || static_cast<size_t>(next) >= idom.size()) {
      return false;  // Malformed chain.
    }
    current = next;
  }
  return false;  // Cycle guard tripped.
}

int Dominators::TreeDepth() const {
  int best = 0;
  const size_t limit = idom_.size();
  for (size_t b = 0; b < idom_.size(); ++b) {
    if (idom_[b] == -1) {
      continue;
    }
    int depth = 0;
    lang::BlockId current = static_cast<lang::BlockId>(b);
    size_t steps = 0;
    while (idom_[static_cast<size_t>(current)] != current && steps++ < limit) {
      current = idom_[static_cast<size_t>(current)];
      ++depth;
    }
    best = std::max(best, depth);
  }
  return best;
}

// --- Taint -------------------------------------------------------------------

namespace {

// Word-packed per-program-point taint state (registers + arrays), shared by
// the engine fixpoint and the final counting pass of both modes.
struct TaintState {
  support::BitSpan regs;
  support::BitSpan arrays;
};

inline bool TaintedReg(const TaintState& state, lang::RegId r) {
  return r != lang::kNoReg && state.regs.Test(static_cast<size_t>(r));
}

inline void SetRegTaint(TaintState& state, lang::RegId r, bool tainted) {
  if (tainted) {
    state.regs.Set(static_cast<size_t>(r));
  } else {
    state.regs.Reset(static_cast<size_t>(r));
  }
}

// Advances the state through one instruction (the taint transfer function).
inline void StepTaint(const lang::IrInstr& instr, TaintState& state) {
  switch (instr.op) {
    case lang::IrOpcode::kInput:
      SetRegTaint(state, instr.dst, true);
      break;
    case lang::IrOpcode::kConst:
      SetRegTaint(state, instr.dst, false);
      break;
    case lang::IrOpcode::kCopy:
    case lang::IrOpcode::kUnOp:
      SetRegTaint(state, instr.dst, TaintedReg(state, instr.a));
      break;
    case lang::IrOpcode::kBinOp:
      SetRegTaint(state, instr.dst,
                  TaintedReg(state, instr.a) || TaintedReg(state, instr.b));
      break;
    case lang::IrOpcode::kArrayLoad:
      SetRegTaint(state, instr.dst,
                  instr.array >= 0 &&
                      state.arrays.Test(static_cast<size_t>(instr.array)));
      break;
    case lang::IrOpcode::kArrayStore:
      if (instr.array >= 0 && TaintedReg(state, instr.b)) {
        state.arrays.Set(static_cast<size_t>(instr.array));
      }
      break;
    case lang::IrOpcode::kCall: {
      // Conservative: result of a call with tainted args is tainted.
      bool any = false;
      for (lang::RegId arg : instr.args) {
        if (TaintedReg(state, arg)) {
          any = true;
        }
      }
      if (instr.dst != lang::kNoReg) {
        SetRegTaint(state, instr.dst, any);
      }
      break;
    }
    default:
      break;
  }
}

// Counting pass over the stable block-entry states; identical for both modes
// because both hand it the same fixpoint in-states.
TaintSummary CountTaint(const lang::IrFunction& fn, const CfgView& cfg,
                        const support::BitMatrix& in_regs,
                        const support::BitMatrix& in_arrays) {
  TaintSummary summary;
  support::BitSet regs_scratch(in_regs.bits());
  support::BitSet arrays_scratch(in_arrays.bits());
  for (lang::BlockId b : cfg.rpo) {
    const auto bu = static_cast<size_t>(b);
    regs_scratch.AssignFrom(in_regs.Row(bu));
    arrays_scratch.AssignFrom(in_arrays.Row(bu));
    TaintState state{regs_scratch.Span(), arrays_scratch.Span()};
    for (const auto& instr : fn.blocks[bu].instrs) {
      bool instr_tainted = false;
      switch (instr.op) {
        case lang::IrOpcode::kInput:
          ++summary.input_sites;
          break;
        case lang::IrOpcode::kArrayLoad:
        case lang::IrOpcode::kArrayStore:
          if (TaintedReg(state, instr.a)) {
            ++summary.tainted_array_indices;
            instr_tainted = true;
          }
          if (instr.op == lang::IrOpcode::kArrayStore && TaintedReg(state, instr.b)) {
            instr_tainted = true;
          }
          break;
        case lang::IrOpcode::kOutput:
          if (instr.is_sink && TaintedReg(state, instr.a)) {
            ++summary.tainted_sinks;
            instr_tainted = true;
          }
          break;
        case lang::IrOpcode::kCall:
          for (lang::RegId arg : instr.args) {
            if (TaintedReg(state, arg)) {
              ++summary.tainted_call_args;
              instr_tainted = true;
            }
          }
          break;
        default:
          if (TaintedReg(state, instr.a) || TaintedReg(state, instr.b)) {
            instr_tainted = true;
          }
          break;
      }
      if (instr_tainted) {
        ++summary.tainted_instructions;
      }
      StepTaint(instr, state);
    }
    const auto& term = fn.blocks[bu].term;
    if (term.kind == lang::TerminatorKind::kBranch && term.cond != lang::kNoReg &&
        state.regs.Test(static_cast<size_t>(term.cond))) {
      ++summary.tainted_branches;
    }
  }
  return summary;
}

void TaintFixpointEngine(const lang::IrFunction& fn, const CfgView& cfg,
                         support::BitMatrix& in_regs, support::BitMatrix& in_arrays) {
  const size_t num_regs = in_regs.bits();
  const size_t num_arrays = in_arrays.bits();
  support::BitMatrix out_regs(fn.blocks.size(), num_regs);
  support::BitMatrix out_arrays(fn.blocks.size(), num_arrays);
  support::BitSet regs_scratch(num_regs);
  support::BitSet arrays_scratch(num_arrays);
  // The reference joins transfer(p, in[p]) over *all* predecessors, and an
  // unreachable predecessor's in-state stays bottom there — so its out-state
  // is the constant transfer-from-empty. Pre-seed those rows once; the
  // worklist then only iterates the reachable region.
  for (size_t u = 0; u < fn.blocks.size(); ++u) {
    if (cfg.Reachable(static_cast<lang::BlockId>(u))) {
      continue;
    }
    auto regs_span = regs_scratch.Span();
    auto arrays_span = arrays_scratch.Span();
    regs_span.ClearAll();
    arrays_span.ClearAll();
    TaintState state{regs_span, arrays_span};
    for (const auto& instr : fn.blocks[u].instrs) {
      StepTaint(instr, state);
    }
    out_regs.Row(u).AssignFrom(regs_span);
    out_arrays.Row(u).AssignFrom(arrays_span);
  }
  FixpointEngine engine(cfg, FixpointEngine::Direction::kForward);
  engine.Run([&](lang::BlockId b) {
    const auto bu = static_cast<size_t>(b);
    auto regs_span = regs_scratch.Span();
    auto arrays_span = arrays_scratch.Span();
    regs_span.ClearAll();
    arrays_span.ClearAll();
    for (const lang::BlockId p : cfg.preds[bu]) {
      regs_span.UnionWith(out_regs.Row(static_cast<size_t>(p)));
      arrays_span.UnionWith(out_arrays.Row(static_cast<size_t>(p)));
    }
    in_regs.Row(bu).AssignFrom(regs_span);
    in_arrays.Row(bu).AssignFrom(arrays_span);
    // Advance the scratch (in) state through the block to produce the out
    // state; dependents re-run only when it changed.
    TaintState state{regs_span, arrays_span};
    for (const auto& instr : fn.blocks[bu].instrs) {
      StepTaint(instr, state);
    }
    bool changed = out_regs.Row(bu).AssignFrom(regs_span);
    changed |= out_arrays.Row(bu).AssignFrom(arrays_span);
    return changed;
  });
}

void TaintFixpointReference(const lang::IrFunction& fn, const CfgView& cfg,
                            support::BitMatrix& in_regs,
                            support::BitMatrix& in_arrays) {
  const size_t num_blocks = fn.blocks.size();
  const size_t num_regs = static_cast<size_t>(fn.reg_count);
  const size_t num_arrays = fn.arrays.size();
  // State per block entry: tainted regs + tainted arrays (array-granular).
  struct State {
    std::vector<bool> regs;
    std::vector<bool> arrays;
    bool operator==(const State&) const = default;
  };
  State empty{std::vector<bool>(num_regs, false), std::vector<bool>(num_arrays, false)};
  std::vector<State> in(num_blocks, empty);

  auto transfer = [&](lang::BlockId b, State state) {
    for (const auto& instr : fn.blocks[static_cast<size_t>(b)].instrs) {
      auto tainted = [&state](lang::RegId r) {
        return r != lang::kNoReg && state.regs[static_cast<size_t>(r)];
      };
      switch (instr.op) {
        case lang::IrOpcode::kInput:
          state.regs[static_cast<size_t>(instr.dst)] = true;
          break;
        case lang::IrOpcode::kConst:
          state.regs[static_cast<size_t>(instr.dst)] = false;
          break;
        case lang::IrOpcode::kCopy:
        case lang::IrOpcode::kUnOp:
          state.regs[static_cast<size_t>(instr.dst)] = tainted(instr.a);
          break;
        case lang::IrOpcode::kBinOp:
          state.regs[static_cast<size_t>(instr.dst)] = tainted(instr.a) || tainted(instr.b);
          break;
        case lang::IrOpcode::kArrayLoad:
          state.regs[static_cast<size_t>(instr.dst)] =
              instr.array >= 0 && state.arrays[static_cast<size_t>(instr.array)];
          break;
        case lang::IrOpcode::kArrayStore:
          if (instr.array >= 0 && tainted(instr.b)) {
            state.arrays[static_cast<size_t>(instr.array)] = true;
          }
          break;
        case lang::IrOpcode::kCall: {
          bool any = false;
          for (lang::RegId arg : instr.args) {
            if (tainted(arg)) {
              any = true;
            }
          }
          if (instr.dst != lang::kNoReg) {
            state.regs[static_cast<size_t>(instr.dst)] = any;
          }
          break;
        }
        default:
          break;
      }
    }
    return state;
  };

  bool changed = true;
  while (changed) {
    changed = false;
    for (lang::BlockId b : cfg.rpo) {
      State new_in = empty;
      for (lang::BlockId p : cfg.preds[static_cast<size_t>(b)]) {
        const State out_p = transfer(p, in[static_cast<size_t>(p)]);
        for (size_t r = 0; r < num_regs; ++r) {
          if (out_p.regs[r]) {
            new_in.regs[r] = true;
          }
        }
        for (size_t a = 0; a < num_arrays; ++a) {
          if (out_p.arrays[a]) {
            new_in.arrays[a] = true;
          }
        }
      }
      if (!(new_in == in[static_cast<size_t>(b)])) {
        in[static_cast<size_t>(b)] = std::move(new_in);
        changed = true;
      }
    }
  }

  for (size_t b = 0; b < num_blocks; ++b) {
    auto regs_row = in_regs.Row(b);
    auto arrays_row = in_arrays.Row(b);
    for (size_t r = 0; r < num_regs; ++r) {
      if (in[b].regs[r]) {
        regs_row.Set(r);
      }
    }
    for (size_t a = 0; a < num_arrays; ++a) {
      if (in[b].arrays[a]) {
        arrays_row.Set(a);
      }
    }
  }
}

}  // namespace

TaintSummary AnalyzeTaint(const lang::IrFunction& fn, const CfgView* cfg,
                          DataflowMode mode) {
  std::optional<CfgView> local;
  const CfgView& view = ViewOrLocal(fn, cfg, local);
  support::BitMatrix in_regs(fn.blocks.size(), static_cast<size_t>(fn.reg_count));
  support::BitMatrix in_arrays(fn.blocks.size(), fn.arrays.size());
  if (mode == DataflowMode::kEngine) {
    TaintFixpointEngine(fn, view, in_regs, in_arrays);
  } else {
    TaintFixpointReference(fn, view, in_regs, in_arrays);
  }
  return CountTaint(fn, view, in_regs, in_arrays);
}

std::vector<double> DataflowRow(const lang::IrFunction& fn, DataflowMode mode) {
  const CfgView cfg(fn);
  const ReachingDefinitions rd(fn, &cfg, mode);
  const Liveness lv(fn, &cfg, mode);
  const Dominators dom(fn, &cfg, mode);
  const TaintSummary ts = AnalyzeTaint(fn, &cfg, mode);
  return {rd.MeanReachingPerUse(),
          static_cast<double>(lv.MaxLiveAtEntry()),
          static_cast<double>(dom.TreeDepth()),
          static_cast<double>(ts.tainted_instructions),
          static_cast<double>(ts.tainted_branches),
          static_cast<double>(ts.tainted_array_indices),
          static_cast<double>(ts.tainted_sinks),
          static_cast<double>(ts.tainted_call_args),
          static_cast<double>(ts.input_sites)};
}

metrics::FeatureVector DataflowFeatures(const lang::IrModule& module,
                                        support::Deadline* deadline,
                                        DataflowMode mode) {
  return DataflowFeaturesFromRows(
      module, deadline, [mode](const lang::IrFunction& fn) { return DataflowRow(fn, mode); });
}

metrics::FeatureVector DataflowFeaturesFromRows(const lang::IrModule& module,
                                                support::Deadline* deadline,
                                                const FunctionRowFn& row_of) {
  const auto& faults = support::FaultInjector::Global();
  if (faults.enabled()) {
    faults.MaybeFail(support::FaultSite::kDataflow, lang::ModuleFingerprint(module));
  }
  metrics::FeatureVector fv;
  double mean_reaching_sum = 0.0;
  int max_live = 0;
  int max_dom_depth = 0;
  TaintSummary total;
  for (const auto& fn : module.functions) {
    if (deadline != nullptr) {
      // Weight by block count: the fixpoint analyses are linear-ish in
      // blocks per iteration, so the watchdog tracks real work. The tick is
      // deliberately identical in both modes (and at any worklist schedule),
      // so step budgets trip at the same logical point and feature rows stay
      // byte-identical between engine and reference runs.
      deadline->TickOrThrow("dataflow", fn.blocks.size() + 1);
    }
    const std::vector<double> row = row_of(fn);
    mean_reaching_sum += row[0];
    max_live = std::max(max_live, static_cast<int>(row[1]));
    max_dom_depth = std::max(max_dom_depth, static_cast<int>(row[2]));
    total.tainted_instructions += static_cast<long long>(row[3]);
    total.tainted_branches += static_cast<long long>(row[4]);
    total.tainted_array_indices += static_cast<long long>(row[5]);
    total.tainted_sinks += static_cast<long long>(row[6]);
    total.tainted_call_args += static_cast<long long>(row[7]);
    total.input_sites += static_cast<long long>(row[8]);
  }
  const double fn_count =
      module.functions.empty() ? 1.0 : static_cast<double>(module.functions.size());
  fv.Set("dataflow.mean_reaching_defs", mean_reaching_sum / fn_count);
  fv.Set("dataflow.max_live_regs", static_cast<double>(max_live));
  fv.Set("dataflow.max_dom_depth", static_cast<double>(max_dom_depth));
  fv.Set("dataflow.tainted_instructions", static_cast<double>(total.tainted_instructions));
  fv.Set("dataflow.tainted_branches", static_cast<double>(total.tainted_branches));
  fv.Set("dataflow.tainted_array_indices",
         static_cast<double>(total.tainted_array_indices));
  fv.Set("dataflow.tainted_sinks", static_cast<double>(total.tainted_sinks));
  fv.Set("dataflow.tainted_call_args", static_cast<double>(total.tainted_call_args));
  fv.Set("dataflow.input_sites", static_cast<double>(total.input_sites));
  return fv;
}

}  // namespace dataflow
