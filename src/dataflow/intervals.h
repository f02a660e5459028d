// Interval abstract interpretation (§4.1 cites Cousot & Cousot's abstract
// interpretation as a source of code properties).
//
// A classic widening/narrowing interval analysis over the MiniC IR: every
// register carries a [lo, hi] range, arrays carry a value-range summary, and
// loop heads widen after a bounded number of visits. The analysis proves
// array accesses in-bounds and divisors non-zero where it can; everything it
// cannot prove is a "possible" finding. Being a sound may-analysis it has
// false positives but no false negatives within the modelled semantics —
// the opposite trade to the lint pass, and costlier than both lint and
// cheaper than symbolic execution; the three are compared in
// bench/ablation_analyses.
#ifndef SRC_DATAFLOW_INTERVALS_H_
#define SRC_DATAFLOW_INTERVALS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/dataflow/engine.h"
#include "src/lang/ir.h"
#include "src/metrics/feature_vector.h"
#include "src/support/constant_interval.h"
#include "src/support/deadline.h"

namespace dataflow {

// A (possibly unbounded) integer interval. Empty intervals are normalised to
// the canonical Bottom().
struct Interval {
  // Sentinels: kMin/kMax stand for -inf/+inf.
  static constexpr int64_t kMin = INT64_MIN;
  static constexpr int64_t kMax = INT64_MAX;

  int64_t lo = kMin;
  int64_t hi = kMax;
  bool bottom = false;  // Unreachable / no value.

  static Interval Top() { return {}; }
  static Interval Bottom() {
    Interval i;
    i.bottom = true;
    return i;
  }
  static Interval Const(int64_t v) { return {v, v, false}; }
  static Interval Range(int64_t lo, int64_t hi) {
    if (lo > hi) {
      return Bottom();
    }
    return {lo, hi, false};
  }

  bool IsTop() const { return !bottom && lo == kMin && hi == kMax; }
  bool Contains(int64_t v) const { return !bottom && lo <= v && v <= hi; }
  bool IsConst() const { return !bottom && lo == hi; }

  bool operator==(const Interval&) const = default;
};

// Conversion to/from the support-layer constant-interval algebra. The
// mapping is the canonical bijection between sentinel intervals and
// *normalised* ConstantIntervals: lo == kMin <-> min undefined, hi == kMax
// <-> max undefined, Bottom <-> Empty. FromConstantInterval normalises
// (a defined bound sitting exactly on an int64 extreme becomes the
// corresponding sentinel), so the roundtrip conflates the genuine extreme
// constants with infinities — exactly as the sentinel domain itself does.
support::ConstantInterval ToConstantInterval(const Interval& iv);
Interval FromConstantInterval(const support::ConstantInterval& ci);

// Lattice and arithmetic operations (all saturating; documented in the .cc).
Interval Join(const Interval& a, const Interval& b);
Interval Meet(const Interval& a, const Interval& b);
Interval Widen(const Interval& older, const Interval& newer);
Interval AddI(const Interval& a, const Interval& b);
Interval SubI(const Interval& a, const Interval& b);
Interval MulI(const Interval& a, const Interval& b);
Interval NegI(const Interval& a);
// Division/modulo assuming the divisor excludes zero (the analysis refines
// the divisor interval first).
Interval DivI(const Interval& a, const Interval& b);
Interval RemI(const Interval& a, const Interval& b);

// A finding the analysis could not discharge.
struct AiFinding {
  enum class Kind { kPossibleOutOfBounds, kPossibleDivByZero };
  Kind kind;
  std::string function;
  int line = 0;
};

struct IntervalReport {
  long long array_accesses = 0;
  long long proven_in_bounds = 0;
  long long divisions = 0;
  long long proven_nonzero_divisor = 0;
  std::vector<AiFinding> findings;  // Deterministic order.
  // Proven per-register ranges at each block's entry, in sentinel-Interval
  // currency for both modes. Filled only when
  // IntervalOptions::record_block_ranges is set; unreachable blocks keep an
  // empty register vector. Used by the concrete-trace cross-check in
  // interp_property_test.
  std::vector<std::vector<Interval>> block_entry_regs;
};

struct IntervalOptions {
  // Visits of a block before widening kicks in.
  int widen_after = 3;
  // Iteration budget per function (defensive bound; widening guarantees
  // termination well below this).
  int max_iterations = 1000;
  // Value range assumed for input(): full width by default.
  Interval input_range = Interval::Top();
  // Cooperative watchdog, ticked once per worklist visit; expiry throws
  // support::DeadlineExceeded out of the analysis. Not owned.
  support::Deadline* deadline = nullptr;
  // Record the stable per-block entry ranges into
  // IntervalReport::block_entry_regs (off by default; the vectors are
  // O(blocks * regs)).
  bool record_block_ranges = false;
  // Selects both the CFG-fact provenance (shared CfgView vs inline
  // recomputation) and the value domain: engine mode runs on the
  // support::ConstantInterval algebra, reference mode on the original
  // sentinel domain. The FIFO worklist and every transfer/refinement rule
  // are one shared template: widening makes interval results
  // visitation-order-sensitive, so the analyzer control flow is kept
  // verbatim and only the domain representation differs. The two domains
  // are related by the ToConstantInterval/FromConstantInterval bijection
  // (engine values stay normalised), so both modes produce identical
  // reports by construction.
  DataflowMode mode = DataflowMode::kEngine;
};

// Analyzes one function (intraprocedural; calls return Top). `cfg`, when
// given, must view `fn`; it supplies precomputed CFG facts in engine mode
// (DataflowFeatures-style sharing) and is ignored in reference mode.
IntervalReport AnalyzeIntervals(const lang::IrFunction& fn,
                                const IntervalOptions& options = {},
                                const CfgView* cfg = nullptr);

// One function's interval payload, in the slot order the fold reads it:
// array accesses, accesses proven in bounds, divisions, divisors proven
// nonzero, possible out-of-bounds findings, possible division-by-zero
// findings, and the options.deadline steps the analysis consumed (0 without
// a deadline), which a stored copy replays so a step budget expires at the
// same point whether the row is recomputed or not.
inline constexpr size_t kIntervalRowSize = 7;
std::vector<double> IntervalRow(const lang::IrFunction& fn,
                                const IntervalOptions& options = {});

// Whole-module aggregation into "ai.*" features.
metrics::FeatureVector IntervalFeatures(const lang::IrModule& module,
                                        const IntervalOptions& options = {});

// IntervalFeatures with each function's payload supplied by `row_of`
// (IntervalRow, or a stored copy of it): the fault check and the fold, in IR
// function order.
metrics::FeatureVector IntervalFeaturesFromRows(const lang::IrModule& module,
                                                const FunctionRowFn& row_of);

}  // namespace dataflow

#endif  // SRC_DATAFLOW_INTERVALS_H_
