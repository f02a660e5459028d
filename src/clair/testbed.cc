#include "src/clair/testbed.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "src/clair/serialize.h"
#include "src/corpus/history.h"
#include "src/dataflow/analyses.h"
#include "src/dataflow/intervals.h"
#include "src/lang/interp.h"
#include "src/lang/parser.h"
#include "src/metrics/callgraph.h"
#include "src/support/rng.h"
#include "src/support/strings.h"
#include "src/support/thread_pool.h"

namespace clair {
namespace {

// Salts separating the function-granular payload namespaces inside the
// shared RowCache / per-file FeatureCache: the same token hash must never
// alias a dataflow row with an interval row.
constexpr uint64_t kFileRowSalt = 0x8f11e50a7c01ULL;
constexpr uint64_t kDataflowRowSalt = 0xda7af10aULL;
constexpr uint64_t kIntervalsRowSalt = 0x17e2f0a1ULL;
constexpr uint64_t kSymexecRowSalt = 0x53e7ecULL;
constexpr uint64_t kDynamicRowSalt = 0xd59a1cULL;

// FNV-1a over the 8 little-endian bytes of `value`, chained from `hash`.
uint64_t MixU64(uint64_t hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash = (hash ^ ((value >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
  }
  return hash;
}

// §5.3's dynamic-trace extension: execute the module's call-graph roots on
// random inputs and tally runtime behaviour into a payload row: trials run,
// trials that faulted, trials that aborted, interpreter steps, branches, sink
// events, then the stage-deadline steps the trials consumed. `deadline` (not
// owned) is threaded into the interpreter, which halts a trial gracefully on
// expiry; the expiry is then re-raised here so the stage wrapper records a
// timeout instead of storing a partially-sampled row.
constexpr size_t kDynamicRowSize = 7;

std::vector<double> DynamicRow(const lang::IrModule& module, int trials, uint64_t seed,
                               support::Deadline* deadline) {
  const uint64_t before = deadline->steps_used();
  // The entries symbolic execution would explore, capped at 8 to bound
  // per-file cost on large modules.
  symx::SymExecOptions entry_policy;
  entry_policy.max_entries = 8;
  support::Rng rng(seed);
  lang::InterpOptions interp_options;
  interp_options.max_steps = 1 << 14;
  interp_options.deadline = deadline;
  std::vector<double> row(kDynamicRowSize, 0.0);  // Integer tallies: exact.
  for (const auto& entry : symx::SymexEntries(module, entry_policy)) {
    for (int t = 0; t < trials; ++t) {
      std::vector<int64_t> inputs;
      for (int i = 0; i < 16; ++i) {
        inputs.push_back(rng.NextBool(0.7)
                             ? static_cast<int64_t>(rng.NextBelow(32))
                             : static_cast<int64_t>(rng.NextBelow(1 << 12)) - 2048);
      }
      const auto trace =
          lang::Execute(module, entry, {0, 1, 2, 3}, std::move(inputs), interp_options);
      deadline->ThrowIfExpired("dynamic");
      row[0] += 1.0;
      row[1] += trace.outcome == lang::ExecOutcome::kOutOfBounds ||
                trace.outcome == lang::ExecOutcome::kDivisionByZero;
      row[2] += trace.outcome == lang::ExecOutcome::kAborted;
      row[3] += static_cast<double>(trace.steps);
      row[4] += static_cast<double>(trace.branches);
      row[5] += static_cast<double>(trace.sink_values.size());
    }
  }
  row[6] = static_cast<double>(deadline->steps_used() - before);
  return row;
}

metrics::FeatureVector DynamicFeaturesFromRow(const std::vector<double>& row) {
  metrics::FeatureVector fv;
  const double runs = row[0];
  const double steps = row[3];
  if (runs > 0.0) {
    fv.Set("dynamic.runs", runs);
    fv.Set("dynamic.fault_rate", row[1] / runs);
    fv.Set("dynamic.abort_rate", row[2] / runs);
    fv.Set("dynamic.mean_steps", steps / runs);
    fv.Set("dynamic.branch_density", steps > 0.0 ? row[4] / steps : 0.0);
    fv.Set("dynamic.sink_events_per_run", row[5] / runs);
  }
  return fv;
}

// Accepts a stored payload row of `size` slots whose last slot holds the
// stage-deadline steps computing it consumed, and replays them, so a step
// budget expires at the same point whether the row is recomputed or reused.
bool AcceptAndReplay(const std::vector<double>& row, size_t size,
                     support::Deadline& deadline, const char* stage) {
  if (row.size() != size) {
    return false;
  }
  deadline.TickOrThrow(stage, static_cast<uint64_t>(row.back()));
  return true;
}

// The reuse tiers' one lookup-or-compute step. With a key, a stored row that
// `accept` takes is served; anything else is computed, counted and stored.
// Without a key (reuse off, or a unit with no fingerprint) the row is
// computed and nothing is stored.
template <typename Cache, typename Compute, typename Accept>
auto ReuseOrCompute(Cache& cache, std::optional<uint64_t> key,
                    std::atomic<uint64_t>& computed, std::atomic<uint64_t>& reused,
                    Compute&& compute, Accept&& accept) {
  decltype(compute()) row;
  if (key.has_value() && cache.Lookup(*key, &row) && accept(row)) {
    reused.fetch_add(1, std::memory_order_relaxed);
    return row;
  }
  row = compute();
  computed.fetch_add(1, std::memory_order_relaxed);
  if (key.has_value()) {
    cache.Insert(*key, row);
  }
  return row;
}

// Moves a successful parse or lowering into a shared immutable artifact.
template <typename T>
support::Result<std::shared_ptr<const T>> Share(support::Result<T> result) {
  if (!result.ok()) {
    return std::move(result).error();
  }
  return std::make_shared<const T>(std::move(result).value());
}

}  // namespace

Testbed::Testbed(const corpus::EcosystemGenerator& ecosystem, TestbedOptions options)
    : ecosystem_(ecosystem),
      options_(options),
      fn_cache_(1 << 18, options.function_cache_max_bytes) {}

// Retry-and-degrade wrapper around one deep-analysis stage. Failure modes
// are normalised here: an Error result, an InjectedFault, a watchdog
// DeadlineExceeded, and any other std::exception all count a failed
// attempt. Each retry runs under the next ScopedAttempt salt, so injected
// verdicts re-roll (transient faults recover; rate-1.0 faults fail every
// attempt and degrade). Provenance is stamped into the row as sparse
// `robust.*` features — absent on clean rows, so fault-free output is
// byte-identical to a build without this layer.
template <typename T, typename Fn>
std::optional<T> Testbed::GuardStage(StageKind stage, metrics::FeatureVector& features,
                                     Fn&& run) const {
  StageCounters& counters = stage_counters_[static_cast<int>(stage)];
  const int max_attempts = std::max(options_.stage_retries, 0) + 1;
  const auto start = std::chrono::steady_clock::now();
  std::optional<T> result;
  int failed_attempts = 0;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    counters.attempts.fetch_add(1, std::memory_order_relaxed);
    if (attempt > 0) {
      counters.retries.fetch_add(1, std::memory_order_relaxed);
    }
    bool injected = false;
    bool timeout = false;
    try {
      support::FaultInjector::ScopedAttempt salt(static_cast<uint32_t>(attempt));
      auto outcome = run(attempt);
      if (outcome.ok()) {
        result.emplace(std::move(outcome).value());
      } else {
        // Sites whose substrate reports failure as an error value rather
        // than a throw (the parser, lowering) tag injected faults by
        // message so the taxonomy still separates them from organic errors.
        injected = support::StartsWith(outcome.error().message(), "injected fault");
      }
    } catch (const support::InjectedFault&) {
      injected = true;
    } catch (const support::DeadlineExceeded&) {
      timeout = true;
    } catch (const std::exception&) {
      // Organic analyzer failure: counted below, row continues.
    }
    if (result.has_value()) {
      break;
    }
    ++failed_attempts;
    counters.failures.fetch_add(1, std::memory_order_relaxed);
    if (injected) {
      counters.injected.fetch_add(1, std::memory_order_relaxed);
    }
    if (timeout) {
      counters.timeouts.fetch_add(1, std::memory_order_relaxed);
    }
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  counters.wall_nanos.fetch_add(
      static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()),
      std::memory_order_relaxed);
  const std::string prefix = std::string("robust.") + StageName(stage);
  if (failed_attempts > 0) {
    features.Add(prefix + "_failures", static_cast<double>(failed_attempts));
  }
  if (!result.has_value()) {
    counters.degraded.fetch_add(1, std::memory_order_relaxed);
    features.Add(prefix + "_degraded", 1.0);
    return std::nullopt;
  }
  if (failed_attempts > 0) {
    counters.recovered.fetch_add(1, std::memory_order_relaxed);
    features.Add(prefix + "_retries", static_cast<double>(failed_attempts));
  }
  return result;
}

uint64_t Testbed::OptionsFingerprint() const {
  // Canonical text encoding of every option that changes extraction output.
  // min_history_years, threads, and checkpoint_path are deliberately
  // excluded: selection does not change a row's content, worker count never
  // changes results, and checkpointing only persists them. The active
  // fault-injection config is included (fingerprint 0 when no site is
  // armed), so faulted runs never share cached rows with clean ones.
  const auto& sx = options_.symexec;
  const std::string encoding = support::Format(
      "df=%d sx=%d dyn=%d trials=%d dseed=%llu deep=%d "
      "width=%d paths=%llu steps=%llu total=%llu queries=%llu depth=%d "
      "array=%d nodes=%llu conflicts=%llu cap=%llu exploit=%d "
      "retries=%d budget=%llu wall=%d faults=%016llx",
      options_.with_dataflow, options_.with_symexec, options_.with_dynamic,
      options_.dynamic_trials,
      static_cast<unsigned long long>(options_.dynamic_seed),
      options_.deep_analysis_max_files, sx.width,
      static_cast<unsigned long long>(sx.max_paths),
      static_cast<unsigned long long>(sx.max_steps_per_path),
      static_cast<unsigned long long>(sx.max_total_steps),
      static_cast<unsigned long long>(sx.max_solver_queries), sx.max_call_depth,
      sx.max_symbolic_array, static_cast<unsigned long long>(sx.max_expr_nodes),
      static_cast<unsigned long long>(sx.solver_conflict_budget),
      static_cast<unsigned long long>(sx.exploit_exact_cap),
      sx.exploit_sample_trials, options_.stage_retries,
      static_cast<unsigned long long>(options_.stage_step_budget),
      options_.stage_wall_ms,
      static_cast<unsigned long long>(support::FaultInjector::Global().Fingerprint()));
  return Fnv1a64(encoding);
}

// Per-entry symbolic exploration. With reuse, an entry's key digests
// everything its result depends on: the entry's call-graph closure (each
// reachable function's body-token hash), the file preamble (global
// initializers), the entry's RNG seed, and the options fingerprint. Stored
// entries are decoded and the rest fan out on the pool; the fold runs in
// entry order either way.
metrics::FeatureVector Testbed::SymexecFeatures(
    const lang::IrModule& module, const ParsedFile* parsed,
    const std::map<std::string, uint64_t>& fn_hashes, uint64_t options_fp,
    int attempt) const {
  symx::SymExecOptions options = options_.symexec;
  options.watchdog_steps = options_.stage_step_budget;
  // Pool workers do not inherit this thread's ScopedAttempt salt, so the
  // retry attempt rides in the options (see SymExecOptions::fault_salt).
  options.fault_salt = static_cast<uint32_t>(attempt);
  const std::vector<std::string> entries = symx::SymexEntries(module, options);
  std::vector<std::optional<uint64_t>> keys(entries.size());
  if (parsed != nullptr) {
    const metrics::CallGraph graph(module);
    for (size_t i = 0; i < entries.size(); ++i) {
      uint64_t key = MixU64(kSymexecRowSalt, options_fp);
      key = MixU64(key, parsed->index.preamble_hash);
      key = Fnv1a64(entries[i], key);
      key = MixU64(key, support::Rng::TaskSeed(options.rng_seed, static_cast<uint64_t>(i)));
      for (const auto& name : graph.ReachableFrom(entries[i])) {  // Sorted.
        const auto it = fn_hashes.find(name);
        key = MixU64(Fnv1a64(name, key),
                     it != fn_hashes.end() ? it->second : 0x9e3779b97f4a7c15ULL);
      }
      keys[i] = key;
    }
  }
  std::vector<symx::SymExecResult> results(entries.size());
  std::vector<size_t> missing;
  for (size_t i = 0; i < entries.size(); ++i) {
    std::vector<double> row;
    if (keys[i].has_value() && fn_cache_.Lookup(*keys[i], &row) &&
        DecodeSymexRow(row, &results[i])) {
      symexec_entries_reused_.fetch_add(1, std::memory_order_relaxed);
    } else {
      missing.push_back(i);
    }
  }
  // A watchdog throw propagates to GuardStage before anything is stored, so
  // a failed stage stores nothing and its retry recomputes every miss.
  std::vector<symx::SymExecResult> explored =
      symx::ExploreEntries(module, entries, missing, options);
  for (size_t m = 0; m < missing.size(); ++m) {
    const size_t i = missing[m];
    if (keys[i].has_value()) {
      fn_cache_.Insert(*keys[i], EncodeSymexRow(explored[m]));
    }
    results[i] = std::move(explored[m]);
    symexec_entries_computed_.fetch_add(1, std::memory_order_relaxed);
  }
  return symx::SymexFeaturesFromResults(results);
}

metrics::FeatureVector Testbed::ExtractFeatures(
    const std::vector<metrics::SourceFile>& files) const {
  const uint64_t options_fp = OptionsFingerprint();
  uint64_t cache_key = 0;
  if (options_.cache_features) {
    cache_key = HashSourceFiles(files, options_fp);
    metrics::FeatureVector cached;
    if (cache_.Lookup(cache_key, &cached)) {
      return cached;
    }
  }
  // Reuse of the AST, file and function tiers: switched off by options or
  // by any armed fault site, so a faulted attempt's output is never served
  // to a clean run or to another attempt. The stage bodies are the same
  // either way; without reuse nothing is looked up or stored.
  const bool reuse =
      options_.cache_functions && support::FaultInjector::Global().Fingerprint() == 0;
  const bool deep =
      options_.with_dataflow || options_.with_symexec || options_.with_dynamic;
  // With reuse, each deep candidate (see the budget below) reads the AST
  // cache here, in the order the deep walk would, so a missing file row and
  // the deep stages share one front-end pass.
  std::vector<std::shared_ptr<const ParsedFile>> deep_parsed;
  metrics::FeatureVector features =
      metrics::AppFeaturesFromFiles(files, [&](const metrics::SourceFile& file) {
        std::optional<uint64_t> key;
        bool deep_candidate = false;
        if (reuse) {
          key = Fnv1a64(file.text, MixU64(Fnv1a64(file.path, kFileRowSalt),
                                          static_cast<uint64_t>(file.language)));
          deep_candidate =
              deep && file.language == metrics::Language::kMiniC &&
              static_cast<int>(deep_parsed.size()) < options_.deep_analysis_max_files;
        }
        std::shared_ptr<const ParsedFile> parsed;
        metrics::FeatureVector row = ReuseOrCompute(
            file_cache_, key, file_rows_computed_, file_rows_reused_,
            [&] {
              if (!deep_candidate) {
                return metrics::ExtractFileFeatures(file);
              }
              std::optional<metrics::FeatureVector> pass_row;
              parsed = ast_cache_.Get(file, &pass_row);
              // An AST-cache hit ran no pass, so the row is computed apart.
              return pass_row.has_value() ? std::move(*pass_row)
                                          : metrics::ExtractFileFeatures(file);
            },
            [](const metrics::FeatureVector&) { return true; });
        if (deep_candidate) {
          deep_parsed.push_back(parsed != nullptr ? std::move(parsed) : ast_cache_.Get(file));
        }
        return row;
      });
  if (!deep) {
    if (options_.cache_features) {
      cache_.Insert(cache_key, features);
    }
    return features;
  }
  // Deep-analysis budget (see TestbedOptions): the first
  // `deep_analysis_max_files` MiniC files in order consume the budget,
  // parse/lower failures included. Each file walks the extraction stage DAG
  // (stage_graph.h): hard edges gate — a parse or lower failure skips the
  // file's remaining stages without attempting them — while analysis
  // failures are soft: GuardStage degrades that stage for that file and the
  // walk continues, so the app row always completes.
  const StageGraph& graph = StageGraph::Extraction();
  using StageResult = support::Result<metrics::FeatureVector>;
  // Every analysis stage merges its features into the row on success.
  const auto merge = [&](std::optional<metrics::FeatureVector> stage_features) {
    if (stage_features.has_value()) {
      features.MergeSum(*stage_features);
    }
    return stage_features.has_value();
  };
  int deep_attempted = 0;
  int deep_done = 0;
  for (const auto& file : files) {
    if (deep_attempted >= options_.deep_analysis_max_files) {
      break;
    }
    if (file.language != metrics::Language::kMiniC) {
      continue;
    }
    const int attempt_index = deep_attempted++;
    // Per-file tracker: feature assembly and prediction are per-request
    // stages owned by the caller (or the scheduler), so they are disabled
    // here; configuration switches disable their analyses the same way.
    StageTracker tracker(graph);
    tracker.Disable(StageKind::kFeatures);
    tracker.Disable(StageKind::kPredict);
    if (!options_.with_dataflow) {
      tracker.Disable(StageKind::kDataflow);
      tracker.Disable(StageKind::kIntervals);
    }
    if (!options_.with_symexec) {
      tracker.Disable(StageKind::kSymexec);
    }
    if (!options_.with_dynamic) {
      tracker.Disable(StageKind::kDynamic);
    }
    // With reuse, parse and lower are served by the AST cache, whose
    // function index keys the payload tiers; without it each runs fresh in
    // its own guarded attempts and nothing is keyed.
    std::shared_ptr<const lang::TranslationUnit> unit;
    std::shared_ptr<const lang::IrModule> module;
    std::shared_ptr<const ParsedFile> parsed;
    std::map<std::string, uint64_t> fn_hashes;
    const auto fn_key = [&](uint64_t salt,
                            const std::string& name) -> std::optional<uint64_t> {
      const auto it = fn_hashes.find(name);
      if (it == fn_hashes.end()) {
        return std::nullopt;
      }
      return MixU64(MixU64(salt, it->second), options_fp);
    };
    for (StageKind stage = tracker.NextRunnable(); stage != StageKind::kCount;
         stage = tracker.NextRunnable()) {
      tracker.MarkRunning(stage);
      bool ok = false;
      switch (stage) {
        case StageKind::kParse: {
          auto res = GuardStage<std::shared_ptr<const lang::TranslationUnit>>(
              stage, features,
              [&](int attempt) -> support::Result<std::shared_ptr<const lang::TranslationUnit>> {
                if (!reuse) {
                  return Share(lang::Parse(file.text));
                }
                // The first attempt takes the entry read with the file row;
                // a retry reads the cache again.
                parsed = attempt == 0 ? deep_parsed[static_cast<size_t>(attempt_index)]
                                      : ast_cache_.Get(file);
                if (parsed->unit != nullptr) {
                  return parsed->unit;
                }
                // Negative results are cached too; the original message is
                // not retained (nothing downstream consumes it).
                return support::Error(support::Error::Code::kParseError, "parse failed");
              });
          if (res.has_value()) {
            unit = std::move(*res);
          }
          if (parsed != nullptr) {
            for (const auto& fp : parsed->index.functions) {
              fn_hashes[fp.name] = fp.token_hash;
            }
          }
          ok = unit != nullptr;
          break;
        }
        case StageKind::kLower: {
          auto res = GuardStage<std::shared_ptr<const lang::IrModule>>(
              stage, features,
              [&](int) -> support::Result<std::shared_ptr<const lang::IrModule>> {
                if (!reuse) {
                  return Share(lang::LowerToIr(*unit));
                }
                if (parsed->module != nullptr) {
                  return parsed->module;
                }
                return support::Error(support::Error::Code::kInternal, "lowering failed");
              });
          if (res.has_value()) {
            module = std::move(*res);
          }
          ok = module != nullptr;
          break;
        }
        case StageKind::kDataflow:
          ok = merge(GuardStage<metrics::FeatureVector>(stage, features, [&](int) -> StageResult {
            support::Deadline deadline = StageDeadline();
            return dataflow::DataflowFeaturesFromRows(
                *module, &deadline, [&](const lang::IrFunction& fn) {
                  return ReuseOrCompute(
                      fn_cache_, fn_key(kDataflowRowSalt, fn.name), fn_dataflow_computed_,
                      fn_dataflow_reused_, [&] { return dataflow::DataflowRow(fn); },
                      [](const std::vector<double>& row) {
                        return row.size() == dataflow::kDataflowRowSize;
                      });
                });
          }));
          break;
        case StageKind::kIntervals:
          ok = merge(GuardStage<metrics::FeatureVector>(stage, features, [&](int) -> StageResult {
            support::Deadline deadline = StageDeadline();
            dataflow::IntervalOptions interval_options;
            interval_options.deadline = &deadline;
            return dataflow::IntervalFeaturesFromRows(*module, [&](const lang::IrFunction& fn) {
              return ReuseOrCompute(
                  fn_cache_, fn_key(kIntervalsRowSalt, fn.name), fn_intervals_computed_,
                  fn_intervals_reused_, [&] { return dataflow::IntervalRow(fn, interval_options); },
                  [&](const std::vector<double>& row) {
                    return AcceptAndReplay(row, dataflow::kIntervalRowSize, deadline, "intervals");
                  });
            });
          }));
          break;
        case StageKind::kSymexec:
          ok = merge(GuardStage<metrics::FeatureVector>(
              stage, features, [&](int attempt) -> StageResult {
                return SymexecFeatures(*module, parsed.get(), fn_hashes, options_fp, attempt);
              }));
          break;
        case StageKind::kDynamic:
          ok = merge(GuardStage<metrics::FeatureVector>(stage, features, [&](int) -> StageResult {
            support::Deadline deadline = StageDeadline();
            // Seeded by attempt index, so a file's dynamic stream is a
            // function of its position among deep candidates, not of
            // earlier parse outcomes. The trace stream depends on every
            // function the roots reach, so the unit of reuse is the file.
            const uint64_t seed = support::Rng::TaskSeed(
                options_.dynamic_seed, static_cast<uint64_t>(attempt_index));
            std::optional<uint64_t> key;
            if (parsed != nullptr) {
              key = MixU64(MixU64(MixU64(kDynamicRowSalt, options_fp),
                                  parsed->index.file_token_hash),
                           seed);
            }
            return DynamicFeaturesFromRow(ReuseOrCompute(
                fn_cache_, key, dynamic_files_computed_, dynamic_files_reused_,
                [&] { return DynamicRow(*module, options_.dynamic_trials, seed, &deadline); },
                [&](const std::vector<double>& row) {
                  return AcceptAndReplay(row, kDynamicRowSize, deadline, "dynamic");
                }));
          }));
          break;
        case StageKind::kFeatures:
        case StageKind::kPredict:
        case StageKind::kCount:
          break;  // Disabled above; unreachable.
      }
      if (ok) {
        tracker.MarkDone(stage);
      } else {
        tracker.MarkFailed(stage);
      }
    }
    if (tracker.state(StageKind::kLower) == StageState::kDone) {
      ++deep_done;
    }
  }
  features.Set("deep.files_attempted", static_cast<double>(deep_attempted));
  features.Set("deep.files_analyzed", static_cast<double>(deep_done));

  // Density features: most raw counts scale with application size, which
  // makes them proxies for LoC; dividing by kLoC isolates the *style* signal
  // (how guard-poor, taint-heavy, or smell-ridden the code is per unit of
  // code) — the quantity the paper wants beyond Figure 2's size baseline.
  const double kloc = std::max(features.Get("loc.code") / 1000.0, 1e-3);
  for (const char* name :
       {"lint.total", "lint.unchecked-input-index", "lint.non-constant-divisor",
        "smell.total", "smell.magic_numbers", "mccabe.total", "shin.branches",
        "shin.functions", "dataflow.input_sites", "dataflow.tainted_instructions",
        "dataflow.tainted_sinks", "dataflow.tainted_array_indices", "ai.possible_oob",
        "ai.possible_div0", "symx.vuln_sites"}) {
    if (features.Has(name)) {
      features.Set(std::string(name) + "_per_kloc", features.Get(name) / kloc);
    }
  }
  // Guardedness: share of array accesses the interval analysis could prove
  // safe (1.0 = fully defensive code).
  const double accesses = features.Get("ai.array_accesses");
  if (accesses > 0.0) {
    features.Set("ai.proven_ratio", features.Get("ai.proven_in_bounds") / accesses);
  }
  const double divisions = features.Get("ai.divisions");
  if (divisions > 0.0) {
    features.Set("ai.proven_div_ratio",
                 features.Get("ai.proven_nonzero_divisor") / divisions);
  }
  if (options_.cache_features) {
    cache_.Insert(cache_key, features);
  }
  return features;
}

std::vector<AppRecord> Testbed::Collect() const {
  const auto selected =
      ecosystem_.database().AppsWithConvergingHistory(options_.min_history_years);
  std::vector<const corpus::AppSpec*> specs;
  specs.reserve(selected.size());
  std::vector<std::string> names;
  for (const auto& app : selected) {
    const corpus::AppSpec* spec = ecosystem_.FindSpec(app);
    if (spec != nullptr) {
      specs.push_back(spec);
      names.push_back(app);
    }
  }
  // Checkpoint resume: load every intact block from a previous interrupted
  // sweep (the tolerant loader drops truncated tails), keyed by app name.
  // Resumed rows are returned verbatim — record serialization round-trips
  // doubles exactly, so the resumed sweep is byte-identical to an
  // uninterrupted one.
  std::unordered_map<std::string, AppRecord> resumed;
  std::unique_ptr<std::ofstream> checkpoint;
  std::mutex checkpoint_mutex;
  if (!options_.checkpoint_path.empty()) {
    bool needs_newline = false;
    {
      std::ifstream in(options_.checkpoint_path, std::ios::binary);
      if (in) {
        std::ostringstream buffer;
        buffer << in.rdbuf();
        const std::string text = buffer.str();
        needs_newline = !text.empty() && text.back() != '\n';
        CheckpointLoadStats load_stats;
        for (auto& record : LoadCheckpoint(text, &load_stats)) {
          // Last block wins: a re-extraction appended after a source change
          // (the splice protocol below) supersedes the stale block for the
          // same app.
          std::string name = record.name;
          resumed.insert_or_assign(std::move(name), std::move(record));
        }
        // Damage is recoverable (dropped apps recompute below) but never
        // silent: torn tails and corrupt blocks land in run_report().
        checkpoint_dropped_.fetch_add(load_stats.dropped_blocks,
                                      std::memory_order_relaxed);
      }
    }
    checkpoint = std::make_unique<std::ofstream>(
        options_.checkpoint_path, std::ios::binary | std::ios::app);
    if (!*checkpoint) {
      checkpoint.reset();  // Unwritable path: degrade to an unsaved sweep.
    } else if (needs_newline) {
      // A kill mid-line left the file without its trailing newline; close
      // the wounded line so the next block starts clean (the loader drops
      // the orphan).
      (*checkpoint) << '\n';
      checkpoint->flush();
    }
  }
  // One task per app: source synthesis + the full extraction battery. Every
  // input is per-app deterministic (GenerateSources forks a per-app stream,
  // ExtractFeatures derives per-index seeds), and ParallelMap collects in
  // index order, so the matrix is bit-identical at any worker count.
  std::unique_ptr<support::ThreadPool> dedicated;
  if (options_.threads > 0) {
    dedicated = std::make_unique<support::ThreadPool>(options_.threads);
  }
  support::ThreadPool& pool =
      dedicated != nullptr ? *dedicated : support::ThreadPool::Global();
  auto records = pool.ParallelMap<AppRecord>(specs.size(), [&](size_t i) {
    std::optional<std::vector<metrics::SourceFile>> files;
    if (const auto it = resumed.find(names[i]); it != resumed.end()) {
      // Splice protocol: a checkpointed row is reused only while its source
      // digest still matches the sources this sweep would extract from.
      // Legacy blocks (digest 0) are trusted verbatim; a mismatch means the
      // corpus moved under the checkpoint (e.g. a version_lag change), so
      // the row is re-extracted — through the warm function-granular caches,
      // so only changed functions pay — and appended last-wins.
      if (it->second.source_digest == 0) {
        apps_from_checkpoint_.fetch_add(1, std::memory_order_relaxed);
        return it->second;
      }
      files = SourcesFor(*specs[i]);
      if (HashSourceFiles(*files, 0) == it->second.source_digest) {
        apps_from_checkpoint_.fetch_add(1, std::memory_order_relaxed);
        return it->second;
      }
      checkpoint_stale_.fetch_add(1, std::memory_order_relaxed);
    }
    if (!files.has_value()) {
      files = SourcesFor(*specs[i]);
    }
    AppRecord record = ExtractRecordFromFiles(*specs[i], *files);
    if (checkpoint != nullptr) {
      const std::string block = SaveCheckpointRecord(record);
      std::lock_guard<std::mutex> lock(checkpoint_mutex);
      (*checkpoint) << block;
      checkpoint->flush();
      checkpoint_appends_.fetch_add(1, std::memory_order_relaxed);
    }
    return record;
  });
  apps_total_.fetch_add(records.size(), std::memory_order_relaxed);
  return records;
}

std::vector<metrics::SourceFile> Testbed::SourcesFor(const corpus::AppSpec& spec) const {
  if (options_.version_lag <= 0) {
    return ecosystem_.GenerateSources(spec);
  }
  const corpus::VersionHistory history = corpus::VersionHistory::ForApp(ecosystem_, spec);
  const size_t head = history.head_version();
  const size_t lag =
      std::min<size_t>(static_cast<size_t>(options_.version_lag), head);
  return history.Materialize(head - lag);
}

AppRecord Testbed::ExtractRecord(const corpus::AppSpec& spec) const {
  return ExtractRecordFromFiles(spec, SourcesFor(spec));
}

AppRecord Testbed::ExtractRecordFromFiles(
    const corpus::AppSpec& spec,
    const std::vector<metrics::SourceFile>& files) const {
  AppRecord record;
  record.name = spec.name;
  record.features = ExtractFeatures(files);
  // Content-only digest (no options/fault fingerprint): rows extracted under
  // different configurations from the same sources agree on it, so digest
  // equality means exactly "same input tree".
  record.source_digest = HashSourceFiles(files, 0);
  record.labels = ecosystem_.database().Summarize(record.name);
  return record;
}

IncrementalStats Testbed::incremental_stats() const {
  IncrementalStats s;
  s.files_parsed = ast_cache_.misses();
  s.parse_reused = ast_cache_.hits();
  s.file_rows_computed = file_rows_computed_.load(std::memory_order_relaxed);
  s.file_rows_reused = file_rows_reused_.load(std::memory_order_relaxed);
  s.fn_dataflow_computed = fn_dataflow_computed_.load(std::memory_order_relaxed);
  s.fn_dataflow_reused = fn_dataflow_reused_.load(std::memory_order_relaxed);
  s.fn_intervals_computed = fn_intervals_computed_.load(std::memory_order_relaxed);
  s.fn_intervals_reused = fn_intervals_reused_.load(std::memory_order_relaxed);
  s.symexec_entries_computed =
      symexec_entries_computed_.load(std::memory_order_relaxed);
  s.symexec_entries_reused = symexec_entries_reused_.load(std::memory_order_relaxed);
  s.dynamic_files_computed = dynamic_files_computed_.load(std::memory_order_relaxed);
  s.dynamic_files_reused = dynamic_files_reused_.load(std::memory_order_relaxed);
  return s;
}

support::Result<FunctionCorpusStats> Testbed::CollectFunctionRows(
    ml::FeatureStoreWriter& writer) const {
  FunctionRankOptions options;
  options.min_history_years = options_.min_history_years;
  options.threads = options_.threads;
  options.version_lag =
      options_.version_lag > 0 ? static_cast<size_t>(options_.version_lag) : 0;
  return clair::CollectFunctionRows(ecosystem_, options, writer);
}

RunReport Testbed::run_report() const {
  RunReport report;
  for (int i = 0; i < kStageKindCount; ++i) {
    const StageCounters& c = stage_counters_[i];
    StageReport stage;
    stage.attempts = c.attempts.load(std::memory_order_relaxed);
    stage.failures = c.failures.load(std::memory_order_relaxed);
    stage.injected = c.injected.load(std::memory_order_relaxed);
    stage.timeouts = c.timeouts.load(std::memory_order_relaxed);
    stage.retries = c.retries.load(std::memory_order_relaxed);
    stage.recovered = c.recovered.load(std::memory_order_relaxed);
    stage.degraded = c.degraded.load(std::memory_order_relaxed);
    stage.wall_seconds = static_cast<double>(c.wall_nanos.load(std::memory_order_relaxed)) * 1e-9;
    if (stage.attempts > 0) {
      report.stages[StageName(static_cast<StageKind>(i))] = stage;
    }
  }
  report.apps_total = apps_total_.load(std::memory_order_relaxed);
  report.apps_from_checkpoint = apps_from_checkpoint_.load(std::memory_order_relaxed);
  report.checkpoint_appends = checkpoint_appends_.load(std::memory_order_relaxed);
  report.checkpoint_dropped_blocks = checkpoint_dropped_.load(std::memory_order_relaxed);
  report.checkpoint_stale_records = checkpoint_stale_.load(std::memory_order_relaxed);
  const FeatureCacheStats cache_stats = cache_.stats();
  report.rows_from_cache = cache_stats.hits;
  report.cache_misses = cache_stats.misses;
  report.cache_entries = cache_stats.entries;
  report.cache_coalesced_fills = cache_stats.coalesced_fills;
  report.cache_integrity_rejects = cache_stats.integrity_rejects +
                                   file_cache_.stats().integrity_rejects +
                                   fn_cache_.stats().integrity_rejects;
  report.cache_evictions = cache_stats.evictions + file_cache_.stats().evictions +
                           fn_cache_.stats().evictions;
  return report;
}

}  // namespace clair
