// The testbed of §5.1: selects applications with a converging CVE history,
// runs the full static-analysis battery over their sources, and joins the
// resulting feature vectors with per-app CVE label summaries.
#ifndef SRC_CLAIR_TESTBED_H_
#define SRC_CLAIR_TESTBED_H_

#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/clair/feature_cache.h"
#include "src/clair/function_rank.h"
#include "src/clair/incremental.h"
#include "src/clair/run_report.h"
#include "src/clair/stage_graph.h"
#include "src/corpus/ecosystem.h"
#include "src/cvedb/cvedb.h"
#include "src/metrics/extract.h"
#include "src/support/deadline.h"
#include "src/support/fault_injection.h"
#include "src/symexec/executor.h"

namespace clair {

struct TestbedOptions {
  double min_history_years = 5.0;  // The paper's selection policy.
  bool with_dataflow = true;
  bool with_symexec = true;
  // §5.3's "one potential improvement is to collect dynamic traces": run the
  // concrete interpreter over random inputs and derive dynamic.* features
  // (fault rate, branch density, sink activity).
  bool with_dynamic = true;
  int dynamic_trials = 8;
  uint64_t dynamic_seed = 0xd1a9;
  // Deeper analyses (dataflow, intervals, symexec, dynamic traces) run on a
  // bounded sample of each app's files; text-level and parse-level metrics
  // always cover every file. Budget policy: the first
  // `deep_analysis_max_files` MiniC files *in file order* consume the
  // budget whether or not they parse and lower — a file that fails to parse
  // spends its slot and contributes nothing. This keeps per-app deep cost
  // bounded by the option alone and keeps per-file seeds stable under
  // failures. The features report both sides: `deep.files_attempted`
  // (budget consumed) and `deep.files_analyzed` (successfully analysed).
  int deep_analysis_max_files = 3;
  // Worker count for the corpus sweep in Collect(): one task per app.
  // 0 = the process default (CLAIR_THREADS, else hardware_concurrency);
  // 1 = exact serial behaviour. Results are bit-identical at any setting.
  int threads = 0;
  // Content-addressed caching of finished feature rows (see
  // feature_cache.h); repeated extraction of identical sources is a lookup.
  bool cache_features = true;
  // Function-granular incremental extraction (see incremental.h): parse
  // artifacts, per-file metric vectors, per-function dataflow/interval
  // payloads, and per-entry symexec results are content-addressed by
  // normalized token hashes, so a warm re-score after an edit re-runs deep
  // analyses only for the changed functions. `false` bypasses the AST, file
  // and function tiers: the same stage bodies run with nothing looked up or
  // stored. Any armed fault site bypasses them the same way, so a faulted
  // attempt's output is never reused. Output is bit-identical either way
  // (tests/incremental_test pins this).
  bool cache_functions = true;
  // Byte cap for the function-granular row cache (0 = unbounded); oldest
  // entries evict first, surfaced as cache_evictions in RunReport.
  size_t function_cache_max_bytes = 64ull << 20;
  // Sweep the corpus as of N commits before HEAD (corpus::VersionHistory).
  // 0 = HEAD, byte-identical to GenerateSources. A sweep at lag L followed
  // by a HEAD sweep over the same checkpoint exercises the splice protocol:
  // records whose source digest no longer matches are re-extracted (warm)
  // and superseded last-wins on resume.
  int version_lag = 0;

  // --- Robustness layer (per-stage isolation in ExtractFeatures) ---
  // Each deep stage (parse, lower, dataflow, intervals, symexec, dynamic)
  // runs guarded: an Error, an exception, an injected fault, or a watchdog
  // expiry downgrades *that stage* to neutral features — the app row always
  // completes — and stamps `robust.<stage>_failures` /
  // `robust.<stage>_degraded` provenance counters into the row.
  //
  // A failed stage is re-attempted this many times before degrading. Retry
  // verdicts re-roll the fault-injection hash (attempt salt), so transient
  // injected faults recover; deterministic failures fail every attempt.
  int stage_retries = 1;
  // Cooperative per-stage step budget (0 = off). Deterministic: expiry is a
  // pure function of the stage's own work, so rows stay bit-identical at any
  // CLAIR_THREADS. Sized far above anything the synthetic corpus reaches.
  uint64_t stage_step_budget = 1ull << 22;
  // Wall-clock per-stage budget in ms (0 = off). Nondeterministic by
  // nature — a production-sweep safety net, not for reproducible runs, and
  // a poor fit with cache_features (a timed-out row may be cached).
  int stage_wall_ms = 0;
  // When non-empty, Collect() streams each finished record to this file
  // (crc-guarded blocks, see serialize.h) and resumes an interrupted sweep
  // from it, producing records bit-identical to an uninterrupted run.
  std::string checkpoint_path;

  symx::SymExecOptions symexec = TightSymexecDefaults();

  static symx::SymExecOptions TightSymexecDefaults() {
    symx::SymExecOptions options;
    options.max_paths = 48;
    options.max_steps_per_path = 1024;
    options.max_total_steps = 1 << 14;
    options.max_solver_queries = 256;
    options.solver_conflict_budget = 1000;
    options.max_expr_nodes = 256;
    options.exploit_sample_trials = 128;
    options.exploit_exact_cap = 16;
    return options;
  }
};

// One application's joined (features, labels) row.
struct AppRecord {
  std::string name;
  metrics::FeatureVector features;
  cvedb::AppSummary labels;
  // Content digest of the sources the row was extracted from
  // (HashSourceFiles with fingerprint 0); 0 for legacy records. Checkpoint
  // resume validates it so a record from one corpus version is never
  // silently reused for another — the splice protocol of DESIGN.md §9.
  uint64_t source_digest = 0;
};

// Work avoided / performed by the function-granular incremental layer.
// "computed" counts deep-analysis executions; "reused" counts cache served
// results. A warm re-score of a one-function edit should show computed
// deltas proportional to the changed set, not the app (pinned by
// tests/incremental_test).
struct IncrementalStats {
  uint64_t files_parsed = 0;             // Parser runs (AST-cache misses).
  uint64_t parse_reused = 0;             // AST-cache hits.
  uint64_t file_rows_computed = 0;       // Shallow per-file metric vectors.
  uint64_t file_rows_reused = 0;
  uint64_t fn_dataflow_computed = 0;     // Per-function dataflow batteries.
  uint64_t fn_dataflow_reused = 0;
  uint64_t fn_intervals_computed = 0;    // Per-function interval analyses.
  uint64_t fn_intervals_reused = 0;
  uint64_t symexec_entries_computed = 0; // Per-entry symbolic explorations.
  uint64_t symexec_entries_reused = 0;
  uint64_t dynamic_files_computed = 0;   // Per-file dynamic trace batteries.
  uint64_t dynamic_files_reused = 0;
};

class Testbed {
 public:
  Testbed(const corpus::EcosystemGenerator& ecosystem, TestbedOptions options = {});

  // Extracts the full feature vector for an arbitrary set of source files
  // (also used by the evaluator on developer code).
  metrics::FeatureVector ExtractFeatures(
      const std::vector<metrics::SourceFile>& files) const;

  // Runs selection + extraction + label join over the whole ecosystem, one
  // parallel task per app (TestbedOptions::threads). Deterministic and
  // bit-identical across worker counts; order follows the database's sorted
  // app names.
  std::vector<AppRecord> Collect() const;

  // One app's joined row, exactly as Collect() would produce it: source
  // synthesis, the full extraction battery, and the CVE label join. The
  // shard worker (shard_worker.h) sweeps its subset of the corpus through
  // this, so shard rows are bit-identical to single-process rows.
  AppRecord ExtractRecord(const corpus::AppSpec& spec) const;

  // Function-granular collection: streams one row per MiniC function of
  // every selected app into `writer` (schema FunctionFeatureNames(), label
  // = has an attributed CVE). Same selection policy and thread setting as
  // Collect(); the store file is byte-identical at any worker count.
  support::Result<FunctionCorpusStats> CollectFunctionRows(
      ml::FeatureStoreWriter& writer) const;

  const TestbedOptions& options() const { return options_; }

  // Hit/miss counters of the feature-row cache (zeros when disabled).
  FeatureCacheStats cache_stats() const { return cache_.stats(); }

  // Counters of the function-granular incremental layer (computed vs reused
  // per deep stage). The acceptance surface for "a warm re-score only
  // re-runs changed functions".
  IncrementalStats incremental_stats() const;

  // Stats of the granular tiers: per-function payload rows and per-file
  // metric vectors. cache_stats() stays L1-app-row-only.
  FeatureCacheStats function_cache_stats() const { return fn_cache_.stats(); }
  FeatureCacheStats file_cache_stats() const { return file_cache_.stats(); }

  // Sources for `spec` at the testbed's configured corpus version (HEAD
  // unless TestbedOptions::version_lag rolls the sweep back N commits).
  std::vector<metrics::SourceFile> SourcesFor(const corpus::AppSpec& spec) const;

  // Failure-taxonomy snapshot: per-stage attempt/failure/degraded/retry
  // counts and wall-clock accumulated by every ExtractFeatures/Collect run
  // of this testbed so far. Wall-clock is the only nondeterministic field.
  RunReport run_report() const;

  // Coalesced-fill accounting: the serving scheduler calls this when it
  // routes N>1 duplicate in-flight requests to a single extraction, so the
  // cache's effectiveness counters (surfaced via run_report) reflect work
  // avoided by request coalescing as well as by lookups.
  void NoteCoalescedExtractions(uint64_t count) const {
    cache_.NoteCoalescedFills(count);
  }

 private:
  struct StageCounters {
    std::atomic<uint64_t> attempts{0};
    std::atomic<uint64_t> failures{0};
    std::atomic<uint64_t> injected{0};
    std::atomic<uint64_t> timeouts{0};
    std::atomic<uint64_t> retries{0};
    std::atomic<uint64_t> recovered{0};
    std::atomic<uint64_t> degraded{0};
    std::atomic<uint64_t> wall_nanos{0};
  };

  // Runs one stage with retry + degradation semantics: `run(attempt)`
  // returns support::Result<T>; an error arm, an InjectedFault, a
  // DeadlineExceeded, or any std::exception counts a failed attempt. After
  // the last attempt the stage degrades: provenance counters are stamped
  // into `features` and nullopt is returned, never an exception.
  template <typename T, typename Fn>
  std::optional<T> GuardStage(StageKind stage, metrics::FeatureVector& features,
                              Fn&& run) const;

  // Fresh per-stage watchdog from the configured budgets.
  support::Deadline StageDeadline() const {
    return support::Deadline(options_.stage_step_budget, options_.stage_wall_ms);
  }

  // Fingerprint of every option that changes extraction output; part of the
  // cache key so differently-configured testbeds never share rows.
  uint64_t OptionsFingerprint() const;

  // One app row from already-materialized sources (Collect's resume path
  // re-extracts through this after a digest mismatch).
  AppRecord ExtractRecordFromFiles(
      const corpus::AppSpec& spec,
      const std::vector<metrics::SourceFile>& files) const;

  // The symexec stage body: explores the module's entries, reusing stored
  // per-entry payloads when `parsed` (the file's AST-cache entry, null
  // without reuse) keys them. `fn_hashes` maps function names to body-token
  // hashes; `attempt` is the GuardStage retry index.
  metrics::FeatureVector SymexecFeatures(const lang::IrModule& module,
                                         const ParsedFile* parsed,
                                         const std::map<std::string, uint64_t>& fn_hashes,
                                         uint64_t options_fp, int attempt) const;

  const corpus::EcosystemGenerator& ecosystem_;
  TestbedOptions options_;
  mutable FeatureCache cache_;
  // Function-granular tiers (see incremental.h): parse artifacts, per-file
  // metric vectors, and per-function/per-entry analysis payloads. Read and
  // written only while reuse is on (cache_functions, no fault site armed).
  mutable AstCache ast_cache_;
  mutable FeatureCache file_cache_;
  mutable RowCache fn_cache_;
  // Indexed by StageKind; the per-request stages (features, predict) stay
  // zero here — the scheduler accounts for them in its own stats.
  mutable std::array<StageCounters, kStageKindCount> stage_counters_;
  mutable std::atomic<uint64_t> apps_total_{0};
  mutable std::atomic<uint64_t> apps_from_checkpoint_{0};
  mutable std::atomic<uint64_t> checkpoint_appends_{0};
  mutable std::atomic<uint64_t> checkpoint_dropped_{0};
  mutable std::atomic<uint64_t> checkpoint_stale_{0};
  // IncrementalStats counters.
  mutable std::atomic<uint64_t> file_rows_computed_{0};
  mutable std::atomic<uint64_t> file_rows_reused_{0};
  mutable std::atomic<uint64_t> fn_dataflow_computed_{0};
  mutable std::atomic<uint64_t> fn_dataflow_reused_{0};
  mutable std::atomic<uint64_t> fn_intervals_computed_{0};
  mutable std::atomic<uint64_t> fn_intervals_reused_{0};
  mutable std::atomic<uint64_t> symexec_entries_computed_{0};
  mutable std::atomic<uint64_t> symexec_entries_reused_{0};
  mutable std::atomic<uint64_t> dynamic_files_computed_{0};
  mutable std::atomic<uint64_t> dynamic_files_reused_{0};
};

}  // namespace clair

#endif  // SRC_CLAIR_TESTBED_H_
