// Deterministic fault injection for robustness testing.
//
// Production sweeps over arbitrary corpora hit files that crash an analyzer,
// blow a solver budget, or hang. The failure-handling paths those inputs
// exercise are rare in synthetic corpora, so they rot unless they can be
// forced on demand. This header gives every hot substrate a *named injection
// site* (parser, lowering, dataflow, interval analysis, symexec solver
// queries, dynamic-trace interpreter, feature cache) that can be made to
// fail at a configured rate:
//
//   CLAIR_FAULTS="parse:0.25,solver:1"        # 25% of parses, every query
//   CLAIR_FAULTS="dynamic:0.5,seed:42"        # optional decision seed
//
// Determinism contract: a site's verdict is a pure hash of
// (config seed, site, subject key, retry attempt) — never of wall clock,
// scheduling, or a global counter — so an injected failure hits the *same*
// subjects at any CLAIR_THREADS value and results stay bit-identical across
// worker counts. Subject keys are content-derived (source digest, module
// fingerprint, solver-query index), so retrying the same subject at the same
// attempt number re-fails deterministically, while a retry at the next
// attempt number re-rolls — which is what lets the testbed's stage-retry
// policy model *transient* faults.
#ifndef SRC_SUPPORT_FAULT_INJECTION_H_
#define SRC_SUPPORT_FAULT_INJECTION_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "src/support/result.h"

namespace support {

enum class FaultSite : int {
  kParse = 0,    // lang::Parse
  kLower,        // lang::LowerToIr
  kDataflow,     // dataflow::DataflowFeaturesFromRows (per module)
  kIntervals,    // dataflow::IntervalFeaturesFromRows (per module)
  kSolver,       // symexec solver queries (per-query granularity)
  kDynamic,      // lang::Execute (dynamic-trace interpreter)
  kCache,        // clair::FeatureCache lookups (simulated corruption)
  // Fleet-sweep chaos sites (clair::ShardCoordinator): a worker process
  // dying mid-shard (torn checkpoint tail + nonzero exit) and a heartbeat
  // lost in transit (the worker is healthy but its lease expires). Keys are
  // content-derived — (app, shard, generation) for crashes, (shard,
  // generation, heartbeat sequence) for losses — so a seeded kill schedule
  // replays bit-identically at any worker count or transport.
  kWorkerCrash,
  kHeartbeatLoss,
  kSiteCount,
};

inline constexpr int kFaultSiteCount = static_cast<int>(FaultSite::kSiteCount);

// Config-string name ("parse", "lower", ...); "?" for out-of-range values.
const char* FaultSiteName(FaultSite site);

// Thrown by MaybeFail at sites whose failure mode is an exception. Callers
// that guard a stage treat it like any other stage error; tests catch it to
// distinguish injected from organic failures.
class InjectedFault : public std::runtime_error {
 public:
  InjectedFault(FaultSite site, uint64_t key);
  FaultSite site() const { return site_; }

 private:
  FaultSite site_;
};

// FNV-1a over bytes; the support-layer digest used to derive subject keys.
// `seed` chains multi-part digests.
uint64_t FaultKey(std::string_view bytes, uint64_t seed = 0xcbf29ce484222325ULL);
// Mixes two 64-bit values (splitmix-style finalizer over the xor).
uint64_t FaultKeyMix(uint64_t a, uint64_t b);

class FaultInjector {
 public:
  FaultInjector() = default;
  FaultInjector(const FaultInjector& other);
  FaultInjector& operator=(const FaultInjector& other);

  // Parses "site:rate[,site:rate...][,seed:<uint64>]". Rates are clamped to
  // [0, 1]; unknown site names and malformed entries are errors.
  static Result<FaultInjector> Parse(std::string_view config);

  // The process-wide injector, initialised once from CLAIR_FAULTS (a
  // malformed value is reported on stderr and treated as empty).
  static FaultInjector& Global();

  // Deterministic verdict for one (site, subject) pair at the calling
  // context's retry attempt; counts the injection when it fires.
  bool ShouldFail(FaultSite site, uint64_t key) const {
    return any_ && ShouldFailSlow(site, key, CurrentAttempt());
  }
  bool ShouldFail(FaultSite site, uint64_t key, uint32_t attempt_salt) const {
    return any_ && ShouldFailSlow(site, key, attempt_salt);
  }

  // Throws InjectedFault when the verdict fires.
  void MaybeFail(FaultSite site, uint64_t key) const {
    if (ShouldFail(site, key)) {
      throw InjectedFault(site, key);
    }
  }
  void MaybeFail(FaultSite site, uint64_t key, uint32_t attempt_salt) const {
    if (ShouldFail(site, key, attempt_salt)) {
      throw InjectedFault(site, key);
    }
  }

  bool enabled() const { return any_; }
  double rate(FaultSite site) const { return rates_[static_cast<int>(site)]; }
  // Number of injections fired at `site` since construction / last Reset.
  uint64_t injected(FaultSite site) const {
    return injected_[static_cast<size_t>(site)].load(std::memory_order_relaxed);
  }
  void ResetCounters();

  // Canonical "site:rate,..." encoding of the active config ("" when empty).
  std::string ConfigString() const;
  // Digest of the active config; 0 when no site is armed, so cache keys and
  // fingerprints are unchanged relative to injection-free builds.
  uint64_t Fingerprint() const;

  // The retry-attempt salt mixed into every verdict on this thread; stage
  // wrappers bump it per retry so transient injected faults can clear.
  static uint32_t CurrentAttempt();

  // RAII: sets the calling thread's attempt salt, restoring on destruction.
  class ScopedAttempt {
   public:
    explicit ScopedAttempt(uint32_t attempt);
    ~ScopedAttempt();
    ScopedAttempt(const ScopedAttempt&) = delete;
    ScopedAttempt& operator=(const ScopedAttempt&) = delete;

   private:
    uint32_t previous_;
  };

  // RAII: replaces the global injector with a parsed config for a test's
  // lifetime, restoring the previous one on destruction. Must not be used
  // while a parallel region is running. Aborts on a malformed config (test
  // scaffolding; a typo should fail loudly). Body follows the class — it
  // stores a FaultInjector, which is incomplete here.
  class ScopedConfig;

 private:
  bool ShouldFailSlow(FaultSite site, uint64_t key, uint32_t attempt) const;

  std::array<double, kFaultSiteCount> rates_{};  // Zero-initialised.
  uint64_t seed_ = 0;
  bool any_ = false;
  mutable std::array<std::atomic<uint64_t>, kFaultSiteCount> injected_{};
};

class FaultInjector::ScopedConfig {
 public:
  explicit ScopedConfig(std::string_view config);
  ~ScopedConfig();
  ScopedConfig(const ScopedConfig&) = delete;
  ScopedConfig& operator=(const ScopedConfig&) = delete;

 private:
  FaultInjector previous_;
};

}  // namespace support

#endif  // SRC_SUPPORT_FAULT_INJECTION_H_
