#include "src/dataflow/engine.h"

#include <utility>

namespace dataflow {

CfgView::CfgView(const lang::IrFunction& function)
    : fn(&function), num_blocks(function.blocks.size()) {
  rpo_index.assign(num_blocks, -1);
  preds.resize(num_blocks);
  succs.resize(num_blocks);
  widen_point.assign(num_blocks, false);
  if (num_blocks == 0) {
    return;  // No entry block; every list stays empty.
  }
  for (size_t b = 0; b < num_blocks; ++b) {
    succs[b] = function.Successors(static_cast<lang::BlockId>(b));
    for (const lang::BlockId succ : succs[b]) {
      preds[static_cast<size_t>(succ)].push_back(static_cast<lang::BlockId>(b));
    }
  }
  // Iterative DFS from the entry with explicit post-order emission.
  std::vector<bool> seen(num_blocks, false);
  std::vector<lang::BlockId> post;
  post.reserve(num_blocks);
  std::vector<std::pair<lang::BlockId, size_t>> stack;
  stack.emplace_back(0, 0);
  seen[0] = true;
  while (!stack.empty()) {
    auto& [block, child] = stack.back();
    const auto& children = succs[static_cast<size_t>(block)];
    if (child < children.size()) {
      const lang::BlockId next = children[child++];
      if (!seen[static_cast<size_t>(next)]) {
        seen[static_cast<size_t>(next)] = true;
        stack.emplace_back(next, 0);
      }
    } else {
      post.push_back(block);
      stack.pop_back();
    }
  }
  rpo.assign(post.rbegin(), post.rend());
  for (size_t i = 0; i < rpo.size(); ++i) {
    rpo_index[static_cast<size_t>(rpo[i])] = static_cast<int32_t>(i);
  }
  // Back edges: u->v with rpo(u) >= rpo(v) (the self-loop counts).
  for (size_t u = 0; u < num_blocks; ++u) {
    if (rpo_index[u] < 0) {
      continue;
    }
    for (const lang::BlockId v : succs[u]) {
      if (rpo_index[static_cast<size_t>(v)] >= 0 &&
          rpo_index[u] >= rpo_index[static_cast<size_t>(v)]) {
        widen_point[static_cast<size_t>(v)] = true;
      }
    }
  }
}

FixpointEngine::FixpointEngine(const CfgView& cfg, Direction direction,
                               bool include_unreachable) {
  order_.reserve(include_unreachable ? cfg.num_blocks : cfg.rpo.size());
  if (direction == Direction::kForward) {
    order_ = cfg.rpo;
  } else {
    order_.assign(cfg.rpo.rbegin(), cfg.rpo.rend());
  }
  if (include_unreachable) {
    // Unreachable facts can depend on reachable ones (dead blocks branching
    // into live code) but never the reverse, so they sort after the RPO part.
    if (direction == Direction::kForward) {
      for (size_t b = 0; b < cfg.num_blocks; ++b) {
        if (!cfg.Reachable(static_cast<lang::BlockId>(b))) {
          order_.push_back(static_cast<lang::BlockId>(b));
        }
      }
    } else {
      for (size_t b = cfg.num_blocks; b-- > 0;) {
        if (!cfg.Reachable(static_cast<lang::BlockId>(b))) {
          order_.push_back(static_cast<lang::BlockId>(b));
        }
      }
    }
  }
  std::vector<int32_t> position(cfg.num_blocks, -1);
  for (size_t i = 0; i < order_.size(); ++i) {
    position[static_cast<size_t>(order_[i])] = static_cast<int32_t>(i);
  }
  deps_.resize(order_.size());
  for (size_t i = 0; i < order_.size(); ++i) {
    const auto block = static_cast<size_t>(order_[i]);
    const auto& dependents =
        direction == Direction::kForward ? cfg.succs[block] : cfg.preds[block];
    deps_[i].reserve(dependents.size());
    for (const lang::BlockId dep : dependents) {
      const int32_t dep_position = position[static_cast<size_t>(dep)];
      if (dep_position >= 0) {
        deps_[i].push_back(dep_position);
      }
    }
  }
}

}  // namespace dataflow
