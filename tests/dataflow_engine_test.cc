// Tests for the word-packed bitset + priority-worklist dataflow engine:
// bitset semantics at word boundaries, CFG-view edge cases (zero-block and
// single-block functions), the malformed-idom-chain guard, and — the core
// guarantee — randomized engine-vs-reference equivalence across every
// analysis on hundreds of seeded CFGs, irreducible ones included.
#include <gtest/gtest.h>

#include "src/dataflow/analyses.h"
#include "src/dataflow/intervals.h"
#include "src/dataflow/random_cfg.h"
#include "src/support/bitset.h"
#include "src/support/rng.h"

namespace dataflow {
namespace {

// --- BitSet / BitMatrix ------------------------------------------------------

TEST(BitSet, SetTestCountAcrossWordBoundaries) {
  for (const size_t bits : {1u, 63u, 64u, 65u, 130u, 192u}) {
    support::BitSet set(bits);
    EXPECT_EQ(set.Span().Count(), 0u) << bits;
    EXPECT_TRUE(set.Span().None());
    set.Span().Set(0);
    set.Span().Set(bits - 1);
    EXPECT_TRUE(set.Span().Test(0));
    EXPECT_TRUE(set.Span().Test(bits - 1));
    EXPECT_EQ(set.Span().Count(), bits == 1 ? 1u : 2u);
    set.Span().Reset(0);
    EXPECT_FALSE(set.Span().Test(0));
  }
}

TEST(BitSet, ForEachSkipsEmptyWords) {
  support::BitSet set(256);
  const std::vector<size_t> expected = {0, 63, 64, 127, 200, 255};
  for (const size_t bit : expected) {
    set.Span().Set(bit);
  }
  std::vector<size_t> seen;
  set.Span().ForEach([&](size_t bit) { seen.push_back(bit); });
  EXPECT_EQ(seen, expected);  // Ascending order, no spurious bits.
}

TEST(BitSet, ChangedFlagsAreExact) {
  support::BitSet a(100);
  support::BitSet b(100);
  b.Span().Set(3);
  b.Span().Set(64);
  EXPECT_TRUE(a.Span().UnionWith(b.Span()));   // Gains bits.
  EXPECT_FALSE(a.Span().UnionWith(b.Span()));  // Idempotent.
  EXPECT_TRUE(a.Span().Test(3));
  EXPECT_TRUE(a.Span().Test(64));

  support::BitSet mask(100);
  mask.Span().Set(3);
  EXPECT_TRUE(a.Span().IntersectWith(mask.Span()));   // Drops bit 64.
  EXPECT_FALSE(a.Span().IntersectWith(mask.Span()));  // Stable now.
  EXPECT_EQ(a.Span().Count(), 1u);

  EXPECT_TRUE(a.Span().SubtractWith(mask.Span()));   // Drops bit 3.
  EXPECT_FALSE(a.Span().SubtractWith(mask.Span()));  // Already empty.
  EXPECT_TRUE(a.Span().None());
}

TEST(BitSet, AssignTransferComputesBaseMinusKillPlusGen) {
  support::BitSet base(70), kill(70), gen(70), out(70);
  base.Span().Set(1);
  base.Span().Set(65);
  kill.Span().Set(65);
  gen.Span().Set(69);
  EXPECT_TRUE(out.Span().AssignTransfer(base.Span(), kill.Span(), gen.Span()));
  EXPECT_TRUE(out.Span().Test(1));
  EXPECT_FALSE(out.Span().Test(65));
  EXPECT_TRUE(out.Span().Test(69));
  // Re-applying the identical transfer reports no change.
  EXPECT_FALSE(out.Span().AssignTransfer(base.Span(), kill.Span(), gen.Span()));
}

TEST(BitSet, EmptySpanOperationsTouchNoMemory) {
  // Zero-width rows (a function with no registers or defs) carry null words.
  support::BitSpan empty;
  const support::ConstBitSpan const_empty;
  empty.ClearAll();
  empty.CopyFrom(const_empty);
  EXPECT_FALSE(empty.UnionWith(const_empty));
  EXPECT_FALSE(empty.AssignFrom(const_empty));
  EXPECT_EQ(empty.Count(), 0u);
  EXPECT_TRUE(empty.None());
  EXPECT_TRUE(support::ConstBitSpan(empty) == const_empty);
  support::BitSet owned(0);
  owned.ClearAll();
  EXPECT_TRUE(owned == support::BitSet());
  support::BitMatrix matrix(2, 0);
  matrix.Row(0).ClearAll();
  matrix.Row(1).CopyFrom(matrix.Row(0));
  EXPECT_TRUE(matrix.Row(0).None());
}

TEST(BitMatrix, RowsAreIndependent) {
  support::BitMatrix matrix(3, 130);
  matrix.Row(1).Set(129);
  EXPECT_FALSE(matrix.Row(0).Test(129));
  EXPECT_TRUE(matrix.Row(1).Test(129));
  EXPECT_FALSE(matrix.Row(2).Test(129));
  EXPECT_TRUE(matrix.Row(0) == matrix.Row(2));
  EXPECT_FALSE(matrix.Row(0) == matrix.Row(1));
}

// --- CFG edge cases (regression: ReversePostOrder indexed block 0 even for
// functions with no blocks) --------------------------------------------------

lang::IrFunction ZeroBlockFunction() {
  lang::IrFunction fn;
  fn.name = "empty";
  fn.reg_count = 0;
  return fn;
}

TEST(CfgView, ZeroBlockFunctionIsHandled) {
  const lang::IrFunction fn = ZeroBlockFunction();
  const CfgView cfg(fn);
  EXPECT_TRUE(cfg.rpo.empty());
  EXPECT_EQ(cfg.num_blocks, 0u);
}

TEST(CfgView, AnalysesAcceptZeroBlockFunction) {
  const lang::IrFunction fn = ZeroBlockFunction();
  for (const DataflowMode mode : {DataflowMode::kEngine, DataflowMode::kReference}) {
    const ReachingDefinitions rd(fn, nullptr, mode);
    EXPECT_EQ(rd.definitions().size(), 0u);
    EXPECT_EQ(rd.MeanReachingPerUse(), 0.0);
    const Liveness lv(fn, nullptr, mode);
    EXPECT_EQ(lv.MaxLiveAtEntry(), 0);
    const Dominators dom(fn, nullptr, mode);
    EXPECT_EQ(dom.TreeDepth(), 0);
    const TaintSummary taint = AnalyzeTaint(fn, nullptr, mode);
    EXPECT_EQ(taint.input_sites, 0);
    IntervalOptions options;
    options.mode = mode;
    const IntervalReport report = AnalyzeIntervals(fn, options);
    EXPECT_EQ(report.array_accesses, 0);
  }
}

TEST(CfgView, SingleBlockFunction) {
  lang::IrFunction fn;
  fn.name = "single";
  fn.reg_count = 2;
  fn.reg_names = {"a", "b"};
  fn.blocks.resize(1);
  lang::IrInstr instr;
  instr.op = lang::IrOpcode::kInput;
  instr.dst = 0;
  fn.blocks[0].instrs.push_back(instr);
  fn.blocks[0].term.kind = lang::TerminatorKind::kReturn;
  fn.blocks[0].term.value = 0;

  const CfgView cfg(fn);
  ASSERT_EQ(cfg.rpo.size(), 1u);
  EXPECT_EQ(cfg.rpo[0], 0);
  for (const DataflowMode mode : {DataflowMode::kEngine, DataflowMode::kReference}) {
    const Dominators dom(fn, &cfg, mode);
    EXPECT_EQ(dom.Idom(0), 0);
    EXPECT_EQ(dom.TreeDepth(), 0);
    const TaintSummary taint = AnalyzeTaint(fn, &cfg, mode);
    EXPECT_EQ(taint.input_sites, 1);
  }
}

// --- Dominator chain guard ---------------------------------------------------

TEST(Dominators, MalformedIdomCycleDoesNotHang) {
  // idom arrays are tree-shaped when produced by the analysis; this simulates
  // corrupted state (e.g. under fault injection) with a 1 <-> 2 cycle.
  const std::vector<lang::BlockId> idom = {0, 2, 1, -1};
  EXPECT_FALSE(Dominators::DominatesInTree(idom, 0, 1));  // Cycle never reaches 0.
  EXPECT_TRUE(Dominators::DominatesInTree(idom, 2, 1));   // Found before cycling.
  EXPECT_FALSE(Dominators::DominatesInTree(idom, 0, 3));  // Unreachable target.
  // Out-of-range idom entry degrades to false instead of indexing OOB.
  const std::vector<lang::BlockId> bad = {0, 17};
  EXPECT_FALSE(Dominators::DominatesInTree(bad, 0, 1));
}

// --- Liveness terminator uses ------------------------------------------------

TEST(Liveness, TerminatorUsesRespectInBlockDefs) {
  // Block 0 defines r0 then branches on it: not upward-exposed, so r0 must
  // not be live-in to block 0. Block 1 branches on r1 without defining it:
  // upward-exposed, so r1 is live-in there.
  lang::IrFunction fn;
  fn.name = "term_uses";
  fn.reg_count = 2;
  fn.reg_names = {"r0", "r1"};
  fn.blocks.resize(3);
  lang::IrInstr def;
  def.op = lang::IrOpcode::kConst;
  def.dst = 0;
  def.imm = 1;
  fn.blocks[0].instrs.push_back(def);
  fn.blocks[0].term.kind = lang::TerminatorKind::kBranch;
  fn.blocks[0].term.cond = 0;
  fn.blocks[0].term.target_true = 1;
  fn.blocks[0].term.target_false = 2;
  fn.blocks[1].term.kind = lang::TerminatorKind::kBranch;
  fn.blocks[1].term.cond = 1;
  fn.blocks[1].term.target_true = 2;
  fn.blocks[1].term.target_false = 2;
  fn.blocks[2].term.kind = lang::TerminatorKind::kReturn;

  for (const DataflowMode mode : {DataflowMode::kEngine, DataflowMode::kReference}) {
    const Liveness lv(fn, nullptr, mode);
    EXPECT_FALSE(lv.LiveIn(0, 0)) << "defined before the branch cond use";
    EXPECT_TRUE(lv.LiveIn(1, 1)) << "upward-exposed terminator cond";
    EXPECT_TRUE(lv.LiveIn(0, 1)) << "flows through block 0 untouched";
  }
}

// --- Irreducible CFG convergence ---------------------------------------------

TEST(FixpointEngine, IrreducibleLoopConverges) {
  // Classic irreducible region: entry branches into the middle of a cycle
  // (1 <-> 2), so neither loop block dominates the other.
  lang::IrFunction fn;
  fn.name = "irreducible";
  fn.reg_count = 3;
  fn.reg_names = {"c", "x", "y"};
  fn.blocks.resize(4);
  lang::IrInstr input;
  input.op = lang::IrOpcode::kInput;
  input.dst = 0;
  fn.blocks[0].instrs.push_back(input);
  fn.blocks[0].term.kind = lang::TerminatorKind::kBranch;
  fn.blocks[0].term.cond = 0;
  fn.blocks[0].term.target_true = 1;
  fn.blocks[0].term.target_false = 2;
  lang::IrInstr def_x;
  def_x.op = lang::IrOpcode::kConst;
  def_x.dst = 1;
  def_x.imm = 5;
  fn.blocks[1].instrs.push_back(def_x);
  fn.blocks[1].term.kind = lang::TerminatorKind::kBranch;
  fn.blocks[1].term.cond = 0;
  fn.blocks[1].term.target_true = 2;
  fn.blocks[1].term.target_false = 3;
  lang::IrInstr def_y;
  def_y.op = lang::IrOpcode::kCopy;
  def_y.dst = 2;
  def_y.a = 1;
  fn.blocks[2].instrs.push_back(def_y);
  fn.blocks[2].term.kind = lang::TerminatorKind::kBranch;
  fn.blocks[2].term.cond = 0;
  fn.blocks[2].term.target_true = 1;
  fn.blocks[2].term.target_false = 3;
  fn.blocks[3].term.kind = lang::TerminatorKind::kReturn;
  fn.blocks[3].term.value = 2;

  const CfgView cfg(fn);
  const Dominators engine(fn, &cfg, DataflowMode::kEngine);
  const Dominators reference(fn, &cfg, DataflowMode::kReference);
  for (lang::BlockId b = 0; b < 4; ++b) {
    EXPECT_EQ(engine.Idom(b), reference.Idom(b)) << "block " << b;
  }
  // Only the entry dominates the irreducible loop blocks.
  EXPECT_EQ(engine.Idom(1), 0);
  EXPECT_EQ(engine.Idom(2), 0);
  EXPECT_EQ(engine.Idom(3), 0);

  const ReachingDefinitions rd_engine(fn, &cfg, DataflowMode::kEngine);
  const ReachingDefinitions rd_reference(fn, &cfg, DataflowMode::kReference);
  for (lang::BlockId b = 0; b < 4; ++b) {
    EXPECT_TRUE(rd_engine.InSet(b) == rd_reference.InSet(b)) << "block " << b;
  }
  // x's definition in block 1 reaches block 2 around the cycle.
  EXPECT_EQ(rd_engine.CountReaching(2, 1), 1);
}

// --- Randomized engine-vs-reference equivalence ------------------------------

void ExpectAllAnalysesAgree(const lang::IrFunction& fn, uint64_t seed) {
  const CfgView cfg(fn);
  const ReachingDefinitions rd_engine(fn, &cfg, DataflowMode::kEngine);
  const ReachingDefinitions rd_reference(fn, &cfg, DataflowMode::kReference);
  for (size_t b = 0; b < fn.blocks.size(); ++b) {
    ASSERT_TRUE(rd_engine.InSet(static_cast<lang::BlockId>(b)) ==
                rd_reference.InSet(static_cast<lang::BlockId>(b)))
        << "seed " << seed << " block " << b;
    for (lang::RegId r = 0; r < fn.reg_count; ++r) {
      ASSERT_EQ(rd_engine.CountReaching(static_cast<lang::BlockId>(b), r),
                rd_reference.CountReaching(static_cast<lang::BlockId>(b), r))
          << "seed " << seed << " block " << b << " reg " << r;
    }
  }
  ASSERT_EQ(rd_engine.MeanReachingPerUse(), rd_reference.MeanReachingPerUse())
      << "seed " << seed;

  const Liveness lv_engine(fn, &cfg, DataflowMode::kEngine);
  const Liveness lv_reference(fn, &cfg, DataflowMode::kReference);
  for (size_t b = 0; b < fn.blocks.size(); ++b) {
    for (lang::RegId r = 0; r < fn.reg_count; ++r) {
      ASSERT_EQ(lv_engine.LiveIn(static_cast<lang::BlockId>(b), r),
                lv_reference.LiveIn(static_cast<lang::BlockId>(b), r))
          << "seed " << seed << " block " << b << " reg " << r;
    }
  }
  ASSERT_EQ(lv_engine.MaxLiveAtEntry(), lv_reference.MaxLiveAtEntry())
      << "seed " << seed;

  const Dominators dom_engine(fn, &cfg, DataflowMode::kEngine);
  const Dominators dom_reference(fn, &cfg, DataflowMode::kReference);
  for (size_t b = 0; b < fn.blocks.size(); ++b) {
    ASSERT_EQ(dom_engine.Idom(static_cast<lang::BlockId>(b)),
              dom_reference.Idom(static_cast<lang::BlockId>(b)))
        << "seed " << seed << " block " << b;
  }
  ASSERT_EQ(dom_engine.TreeDepth(), dom_reference.TreeDepth()) << "seed " << seed;

  const TaintSummary taint_engine = AnalyzeTaint(fn, &cfg, DataflowMode::kEngine);
  const TaintSummary taint_reference = AnalyzeTaint(fn, &cfg, DataflowMode::kReference);
  ASSERT_EQ(taint_engine.tainted_instructions, taint_reference.tainted_instructions)
      << "seed " << seed;
  ASSERT_EQ(taint_engine.tainted_branches, taint_reference.tainted_branches)
      << "seed " << seed;
  ASSERT_EQ(taint_engine.tainted_array_indices, taint_reference.tainted_array_indices)
      << "seed " << seed;
  ASSERT_EQ(taint_engine.tainted_sinks, taint_reference.tainted_sinks)
      << "seed " << seed;
  ASSERT_EQ(taint_engine.tainted_call_args, taint_reference.tainted_call_args)
      << "seed " << seed;
  ASSERT_EQ(taint_engine.input_sites, taint_reference.input_sites) << "seed " << seed;

  IntervalOptions engine_options;
  engine_options.mode = DataflowMode::kEngine;
  IntervalOptions reference_options;
  reference_options.mode = DataflowMode::kReference;
  const IntervalReport ai_engine = AnalyzeIntervals(fn, engine_options, &cfg);
  const IntervalReport ai_reference = AnalyzeIntervals(fn, reference_options);
  ASSERT_EQ(ai_engine.array_accesses, ai_reference.array_accesses) << "seed " << seed;
  ASSERT_EQ(ai_engine.proven_in_bounds, ai_reference.proven_in_bounds)
      << "seed " << seed;
  ASSERT_EQ(ai_engine.divisions, ai_reference.divisions) << "seed " << seed;
  ASSERT_EQ(ai_engine.proven_nonzero_divisor, ai_reference.proven_nonzero_divisor)
      << "seed " << seed;
  ASSERT_EQ(ai_engine.findings.size(), ai_reference.findings.size()) << "seed " << seed;
  for (size_t f = 0; f < ai_engine.findings.size(); ++f) {
    ASSERT_EQ(ai_engine.findings[f].kind, ai_reference.findings[f].kind)
        << "seed " << seed;
    ASSERT_EQ(ai_engine.findings[f].line, ai_reference.findings[f].line)
        << "seed " << seed;
  }
}

TEST(EngineEquivalence, RandomizedCfgs) {
  // 240 seeded CFGs of up to 64 blocks, with unreachable blocks, back edges,
  // self-loops, and irreducible regions by construction.
  for (uint64_t seed = 1; seed <= 240; ++seed) {
    support::Rng rng(seed * 0x9E3779B97F4A7C15ull);
    const lang::IrFunction fn = MakeRandomFunction(rng);
    ExpectAllAnalysesAgree(fn, seed);
    if (::testing::Test::HasFatalFailure()) {
      return;  // First failing seed is enough signal.
    }
  }
}

TEST(EngineEquivalence, ModuleFeaturesMatchByteForByte) {
  // DataflowFeatures must produce the exact same FeatureVector in both modes
  // (the testbed's byte-identical-rows guarantee rides on this).
  lang::IrModule module;
  support::Rng rng(20260805);
  for (int i = 0; i < 8; ++i) {
    module.functions.push_back(MakeRandomFunction(rng));
    module.functions.back().name = "fn" + std::to_string(i);
  }
  module.functions.push_back(ZeroBlockFunction());
  const auto engine = DataflowFeatures(module, nullptr, DataflowMode::kEngine);
  const auto reference = DataflowFeatures(module, nullptr, DataflowMode::kReference);
  EXPECT_EQ(engine.values(), reference.values());
}

}  // namespace
}  // namespace dataflow
