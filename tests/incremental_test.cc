// Function-granular incremental extraction: content addressing, diff
// planning, version history, warm re-scores that only re-run changed
// functions, checkpoint/version splicing, and store splicing — every path
// pinned bit-identical to from-scratch extraction and to pinned corpus
// digests.
#include "src/clair/incremental.h"

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/clair/feature_cache.h"
#include "src/clair/function_rank.h"
#include "src/clair/run_report.h"
#include "src/clair/serialize.h"
#include "src/clair/testbed.h"
#include "src/corpus/ecosystem.h"
#include "src/corpus/history.h"
#include "src/metrics/extract.h"
#include "src/ml/feature_store.h"
#include "src/support/fault_injection.h"
#include "src/symexec/executor.h"

namespace {

corpus::EcosystemGenerator SmallEcosystem() {
  corpus::CorpusOptions options;
  options.mature_apps = 12;
  options.immature_apps = 2;
  options.size_scale = 0.01;
  return corpus::EcosystemGenerator(options);
}

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

metrics::SourceFile MiniC(const std::string& path, const std::string& text) {
  metrics::SourceFile file;
  file.path = path;
  file.language = metrics::Language::kMiniC;
  file.text = text;
  return file;
}

// First app (sorted selection order) with >= `min_files` MiniC files whose
// first MiniC file holds >= `min_fns` functions — the shape the warm
// re-score assertions need.
const corpus::AppSpec* FindRichSpec(const corpus::EcosystemGenerator& eco,
                                    size_t min_files, size_t min_fns) {
  for (const auto& name : eco.database().AppsWithConvergingHistory(5.0)) {
    const corpus::AppSpec* spec = eco.FindSpec(name);
    if (spec == nullptr) {
      continue;
    }
    const auto files = eco.GenerateSources(*spec);
    size_t minic = 0;
    size_t first_fns = 0;
    for (const auto& file : files) {
      if (file.language != metrics::Language::kMiniC) {
        continue;
      }
      if (minic == 0) {
        first_fns = clair::IndexFunctions(file).functions.size();
      }
      ++minic;
    }
    if (minic >= min_files && first_fns >= min_fns) {
      return spec;
    }
  }
  return nullptr;
}

// --- Content addressing ------------------------------------------------------

TEST(TokenHashing, CommentAndWhitespaceInsensitive) {
  const auto base = MiniC("a.c", "int f(int x) { return x + 1; }\n"
                                 "int g() { return f(2); }\n");
  const auto noisy = MiniC("a.c",
                           "// a leading comment\n"
                           "int f(int x)   {\n"
                           "  /* block */ return x + 1;\n"
                           "}\n\n"
                           "int g() { return f(2); }  // trailing\n");
  const auto a = clair::IndexFunctions(base);
  const auto b = clair::IndexFunctions(noisy);
  ASSERT_TRUE(a.parsed);
  ASSERT_TRUE(b.parsed);
  EXPECT_EQ(a.file_token_hash, b.file_token_hash);
  ASSERT_EQ(a.functions.size(), 2u);
  ASSERT_EQ(b.functions.size(), 2u);
  for (size_t i = 0; i < a.functions.size(); ++i) {
    EXPECT_EQ(a.functions[i].name, b.functions[i].name);
    EXPECT_EQ(a.functions[i].token_hash, b.functions[i].token_hash);
  }
}

TEST(TokenHashing, AnyTokenChangePerturbs) {
  const auto base = MiniC("a.c", "int f(int x) { return x + 1; }\n"
                                 "int g() { return f(2); }\n");
  const auto edited = MiniC("a.c", "int f(int x) { return x + 2; }\n"
                                   "int g() { return f(2); }\n");
  const auto a = clair::IndexFunctions(base);
  const auto b = clair::IndexFunctions(edited);
  EXPECT_NE(a.file_token_hash, b.file_token_hash);
  ASSERT_EQ(b.functions.size(), 2u);
  EXPECT_NE(a.functions[0].token_hash, b.functions[0].token_hash);
  // The untouched sibling keeps its key.
  EXPECT_EQ(a.functions[1].token_hash, b.functions[1].token_hash);
  // Preamble (outside every function) is unchanged in both.
  EXPECT_EQ(a.preamble_hash, b.preamble_hash);
}

// --- Diff planner ------------------------------------------------------------

TEST(DiffPlanner, ClassifiesAddModifyDelete) {
  const std::vector<metrics::SourceFile> old_files = {
      MiniC("a.c", "int keep() { return 1; }\nint gone() { return 2; }\n"),
      MiniC("b.c", "int touch() { return 3; }\n")};
  const std::vector<metrics::SourceFile> new_files = {
      MiniC("a.c", "int keep() { return 1; }\nint fresh() { return 9; }\n"),
      MiniC("b.c", "int touch() { return 30; }\n")};
  const auto plan = clair::PlanFunctionDiff(old_files, new_files);
  EXPECT_EQ(plan.unchanged, 1u);
  EXPECT_EQ(plan.modified, 1u);
  EXPECT_EQ(plan.added, 1u);
  EXPECT_EQ(plan.deleted, 1u);
  EXPECT_EQ(plan.Changed(), 3u);
  std::map<std::pair<std::string, std::string>, clair::FunctionChange> got;
  for (const auto& delta : plan.deltas) {
    got[{delta.path, delta.function}] = delta.change;
  }
  EXPECT_EQ(got[std::make_pair(std::string("a.c"), std::string("keep"))], clair::FunctionChange::kUnchanged);
  EXPECT_EQ(got[std::make_pair(std::string("a.c"), std::string("gone"))], clair::FunctionChange::kDeleted);
  EXPECT_EQ(got[std::make_pair(std::string("a.c"), std::string("fresh"))], clair::FunctionChange::kAdded);
  EXPECT_EQ(got[std::make_pair(std::string("b.c"), std::string("touch"))], clair::FunctionChange::kModified);
  const std::set<std::string> changed(plan.changed_files.begin(),
                                      plan.changed_files.end());
  EXPECT_EQ(changed, (std::set<std::string>{"a.c", "b.c"}));
}

TEST(DiffPlanner, RecoversCommitTouchedSet) {
  const auto eco = SmallEcosystem();
  bool checked = false;
  for (const auto& name : eco.database().AppsWithConvergingHistory(5.0)) {
    const corpus::AppSpec* spec = eco.FindSpec(name);
    if (spec == nullptr) {
      continue;
    }
    const auto history = corpus::VersionHistory::ForApp(eco, *spec);
    if (history.commits().empty()) {
      continue;
    }
    const size_t head = history.head_version();
    const auto plan = clair::PlanFunctionDiff(history.Materialize(head - 1),
                                              history.Materialize(head));
    // The last commit's touched set is the planner's ground truth: exactly
    // those functions differ between the adjacent versions.
    std::set<std::pair<std::string, std::string>> expected;
    for (const auto& edit : history.commits().back().edits) {
      expected.insert({edit.path, edit.function});
    }
    std::set<std::pair<std::string, std::string>> modified;
    for (const auto& delta : plan.deltas) {
      if (delta.change == clair::FunctionChange::kModified) {
        modified.insert({delta.path, delta.function});
      }
    }
    EXPECT_EQ(modified, expected) << name;
    EXPECT_EQ(plan.added, 0u) << name;
    EXPECT_EQ(plan.deleted, 0u) << name;
    checked = true;
  }
  EXPECT_TRUE(checked);
}

// --- Version history ---------------------------------------------------------

TEST(VersionHistory, HeadIsByteIdenticalToGenerateSources) {
  const auto eco = SmallEcosystem();
  size_t apps_with_commits = 0;
  for (const auto& name : eco.database().AppsWithConvergingHistory(5.0)) {
    const corpus::AppSpec* spec = eco.FindSpec(name);
    if (spec == nullptr) {
      continue;
    }
    const auto history = corpus::VersionHistory::ForApp(eco, *spec);
    const auto head = history.Materialize(history.head_version());
    const auto direct = eco.GenerateSources(*spec);
    ASSERT_EQ(head.size(), direct.size()) << name;
    for (size_t i = 0; i < head.size(); ++i) {
      EXPECT_EQ(head[i].path, direct[i].path);
      EXPECT_EQ(head[i].text, direct[i].text) << name << " " << head[i].path;
    }
    if (!history.commits().empty()) {
      ++apps_with_commits;
      // Earlier versions still parse: marker edits are valid declarations.
      for (const auto& file : history.Materialize(0)) {
        if (file.language == metrics::Language::kMiniC) {
          EXPECT_TRUE(clair::IndexFunctions(file).parsed)
              << name << " " << file.path;
        }
      }
    }
  }
  EXPECT_GT(apps_with_commits, 0u);
}

TEST(VersionHistory, ProcessMetricsFoldTheAppliedPrefix) {
  const auto eco = SmallEcosystem();
  const corpus::AppSpec* spec = FindRichSpec(eco, 1, 1);
  ASSERT_NE(spec, nullptr);
  const auto history = corpus::VersionHistory::ForApp(eco, *spec);
  ASSERT_FALSE(history.commits().empty());
  const auto at_head = history.ProcessMetricsAt(history.head_version());
  double touches = 0.0;
  for (const auto& [path, fns] : at_head) {
    for (const auto& [fn, pm] : fns) {
      EXPECT_GE(pm.age_days, 0.0) << path << "::" << fn;
      EXPECT_GE(pm.days_since_change, 0.0);
      EXPECT_GE(pm.touches, 0.0);
      touches += pm.touches;
    }
  }
  // Every commit edit lands on some function's counter.
  size_t edits = 0;
  for (const auto& commit : history.commits()) {
    edits += commit.edits.size();
  }
  EXPECT_EQ(static_cast<size_t>(touches), edits);
  // At version 0 nothing has been touched yet.
  double initial_touches = 0.0;
  for (const auto& [path, fns] : history.ProcessMetricsAt(0)) {
    for (const auto& [fn, pm] : fns) {
      initial_touches += pm.touches;
    }
  }
  EXPECT_EQ(initial_touches, 0.0);
}

TEST(FunctionRows, ProcFeaturesArePopulated) {
  const auto eco = SmallEcosystem();
  const corpus::AppSpec* spec = FindRichSpec(eco, 1, 1);
  ASSERT_NE(spec, nullptr);
  const auto& names = metrics::FunctionFeatureNames();
  const auto index_of = [&](const std::string& name) {
    for (size_t i = 0; i < names.size(); ++i) {
      if (names[i] == name) {
        return i;
      }
    }
    return names.size();
  };
  const size_t touches_col = index_of("proc.touches");
  const size_t age_col = index_of("proc.age_days");
  ASSERT_LT(touches_col, names.size());
  ASSERT_LT(age_col, names.size());
  const auto rows = clair::ExtractAppFunctionRows(eco, *spec);
  ASSERT_FALSE(rows.empty());
  double total_touches = 0.0;
  double total_age = 0.0;
  for (const auto& row : rows) {
    ASSERT_EQ(row.values.size(), names.size());
    total_touches += row.values[touches_col];
    total_age += row.values[age_col];
  }
  EXPECT_GT(total_touches, 0.0);
  EXPECT_GT(total_age, 0.0);
}

// --- Cache capacity policy ---------------------------------------------------

TEST(Caches, FeatureCacheEvictsOldestFirst) {
  clair::FeatureCache cache(2);
  metrics::FeatureVector fv;
  fv.Set("x", 1.0);
  cache.Insert(1, fv);
  cache.Insert(2, fv);
  cache.Insert(3, fv);  // Evicts key 1 (FIFO).
  auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  metrics::FeatureVector out;
  EXPECT_FALSE(cache.Lookup(1, &out));
  EXPECT_TRUE(cache.Lookup(2, &out));
  EXPECT_TRUE(cache.Lookup(3, &out));
}

TEST(Caches, RowCacheByteCapBoundsResidency) {
  clair::RowCache cache(1 << 18, 4096);
  const std::vector<double> row(16, 1.5);
  for (uint64_t key = 1; key <= 200; ++key) {
    cache.Insert(key, row);
  }
  const auto stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes, 4096u);
  // Deterministic FIFO: the newest key survives, the oldest is gone.
  std::vector<double> out;
  EXPECT_TRUE(cache.Lookup(200, &out));
  EXPECT_EQ(out, row);
  EXPECT_FALSE(cache.Lookup(1, &out));
}

TEST(Caches, SymexRowDecodeRejectsMalformedRows) {
  symx::SymExecResult result;
  result.paths_explored = 9;
  result.paths_completed = 7;
  result.solver_queries = 40;
  result.range_pruned = 3;
  result.sat_conflicts = 11;
  result.model_reuse_hits = 5;
  result.simplifier_folds = 2;
  result.vulns.resize(2);
  result.vulns[0].kind = symx::VulnKind::kOutOfBounds;
  result.vulns[0].exploit_fraction = 0.25;
  result.vulns[1].kind = symx::VulnKind::kDivByZero;
  result.vulns[1].exploit_fraction = 0.5;
  const std::vector<double> row = clair::EncodeSymexRow(result);
  ASSERT_EQ(row.size(), 8u + 2u * 2u);

  // A valid row round-trips every field the symx.* fold reads.
  symx::SymExecResult decoded;
  ASSERT_TRUE(clair::DecodeSymexRow(row, &decoded));
  EXPECT_EQ(symx::SymexFeaturesFromResults({decoded}).values(),
            symx::SymexFeaturesFromResults({result}).values());
  EXPECT_EQ(clair::EncodeSymexRow(decoded), row);

  // A short row: its count promises more vuln pairs than it holds.
  symx::SymExecResult untouched;
  untouched.paths_explored = 123;
  std::vector<double> short_row(row.begin(), row.end() - 1);
  EXPECT_FALSE(clair::DecodeSymexRow(short_row, &untouched));
  short_row.pop_back();
  EXPECT_FALSE(clair::DecodeSymexRow(short_row, &untouched));
  EXPECT_FALSE(clair::DecodeSymexRow(std::vector<double>(row.begin(), row.begin() + 7),
                                     &untouched));
  // An over-long row: trailing pairs the count does not account for.
  std::vector<double> long_row = row;
  long_row.push_back(0.0);
  long_row.push_back(0.75);
  EXPECT_FALSE(clair::DecodeSymexRow(long_row, &untouched));
  // A count far beyond the row, and an invalid vuln kind.
  std::vector<double> huge_count = row;
  huge_count[7] = 1e18;
  EXPECT_FALSE(clair::DecodeSymexRow(huge_count, &untouched));
  std::vector<double> bad_kind = row;
  bad_kind[8] = 2.0;
  EXPECT_FALSE(clair::DecodeSymexRow(bad_kind, &untouched));
  std::vector<double> bad_counter = row;
  bad_counter[2] = -1.0;
  EXPECT_FALSE(clair::DecodeSymexRow(bad_counter, &untouched));
  // Rejected rows leave the output alone.
  EXPECT_EQ(untouched.paths_explored, 123u);
  EXPECT_TRUE(untouched.vulns.empty());
}

TEST(RunReportIo, IncrementalCountersRoundTrip) {
  clair::RunReport report;
  report.cache_evictions = 17;
  report.checkpoint_stale_records = 5;
  report.rows_from_cache = 2;
  const auto loaded = clair::LoadRunReport(clair::SaveRunReport(report));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().cache_evictions, 17u);
  EXPECT_EQ(loaded.value().checkpoint_stale_records, 5u);
  const std::string text = report.ToString();
  EXPECT_NE(text.find("cache_evictions=17"), std::string::npos);
  EXPECT_NE(text.find("checkpoint_stale=5"), std::string::npos);

  clair::RunReport merged;
  merged.Merge(report);
  merged.Merge(report);
  EXPECT_EQ(merged.cache_evictions, 34u);
  EXPECT_EQ(merged.checkpoint_stale_records, 10u);
}

// --- The warm re-score acceptance surface ------------------------------------

TEST(Incremental, WarmRescoreRecomputesOnlyChangedFunctions) {
  const auto eco = SmallEcosystem();
  const corpus::AppSpec* spec = FindRichSpec(eco, 2, 2);
  ASSERT_NE(spec, nullptr);
  const auto files = eco.GenerateSources(*spec);

  clair::TestbedOptions options;
  const clair::Testbed testbed(eco, options);
  const auto cold = testbed.ExtractFeatures(files);
  const auto before = testbed.incremental_stats();

  // A one-function edit: the canonical "developer touched one function".
  auto edited = files;
  size_t edited_file = edited.size();
  std::string edited_fn;
  for (size_t i = 0; i < edited.size(); ++i) {
    if (edited[i].language == metrics::Language::kMiniC) {
      const auto index = clair::IndexFunctions(edited[i]);
      ASSERT_GE(index.functions.size(), 2u);
      edited_fn = index.functions.front().name;
      edited_file = i;
      break;
    }
  }
  ASSERT_LT(edited_file, edited.size());
  ASSERT_TRUE(
      corpus::ApplyFunctionEdit(edited[edited_file], edited_fn, "int hotfix_probe = 41;"));

  const auto warm = testbed.ExtractFeatures(edited);
  const auto after = testbed.incremental_stats();

  // Deep analyses re-ran only for the changed set: one parse, one shallow
  // file row, one dataflow battery, one interval battery, one dynamic file.
  EXPECT_EQ(after.files_parsed - before.files_parsed, 1u);
  EXPECT_EQ(after.file_rows_computed - before.file_rows_computed, 1u);
  EXPECT_EQ(after.fn_dataflow_computed - before.fn_dataflow_computed, 1u);
  EXPECT_EQ(after.fn_intervals_computed - before.fn_intervals_computed, 1u);
  EXPECT_EQ(after.dynamic_files_computed - before.dynamic_files_computed, 1u);
  // Everything untouched came from the warm tiers.
  EXPECT_EQ(after.file_rows_reused - before.file_rows_reused, files.size() - 1);
  EXPECT_GE(after.parse_reused - before.parse_reused, 1u);
  EXPECT_GE(after.fn_dataflow_reused - before.fn_dataflow_reused, 1u);
  EXPECT_GE(after.fn_intervals_reused - before.fn_intervals_reused, 1u);
  EXPECT_GE(after.dynamic_files_reused - before.dynamic_files_reused, 1u);

  // The warm result is bit-identical to a from-scratch extraction of the
  // edited tree — through fresh caches and with the reuse tiers bypassed.
  clair::Testbed scratch(eco, options);
  EXPECT_EQ(warm.values(), scratch.ExtractFeatures(edited).values());
  clair::TestbedOptions cache_off_options = options;
  cache_off_options.cache_functions = false;
  clair::Testbed cache_off(eco, cache_off_options);
  EXPECT_EQ(warm.values(), cache_off.ExtractFeatures(edited).values());
  EXPECT_EQ(cold.values(), cache_off.ExtractFeatures(files).values());
  // And the edit actually moved something.
  EXPECT_NE(warm.values(), cold.values());
}

// Fnv1a64(SaveRecords(Collect())) of SmallEcosystem() under each
// configuration below, recorded from the release that still carried a
// separate module-level extraction path — the independent oracle for the one
// remaining path. Any drift in a feature row, a robust.* provenance stamp or
// the record encoding moves them.
constexpr uint64_t kCleanDigest = 0x9a664638f080ffa5ULL;
constexpr uint64_t kDataflowFaultDigest = 0xc02961a953ee21d0ULL;
constexpr uint64_t kMixedFaultDigest = 0x06170e4e37365bebULL;
constexpr uint64_t kLowerFaultDigest = 0xeeea7aa69054686aULL;
constexpr uint64_t kStepBudgetDigest = 0xbee331b246673838ULL;

uint64_t CollectDigest(const corpus::EcosystemGenerator& eco,
                       const clair::TestbedOptions& options) {
  return clair::Fnv1a64(clair::SaveRecords(clair::Testbed(eco, options).Collect()));
}

TEST(Incremental, CollectMatchesPinnedDigestsAcrossThreadsAndCacheModes) {
  const auto eco = SmallEcosystem();
  clair::TestbedOptions cache_off;
  cache_off.cache_functions = false;
  EXPECT_EQ(CollectDigest(eco, cache_off), kCleanDigest);
  for (int threads : {1, 4, 0}) {
    clair::TestbedOptions options;
    options.threads = threads;
    const clair::Testbed testbed(eco, options);
    EXPECT_EQ(clair::Fnv1a64(clair::SaveRecords(testbed.Collect())), kCleanDigest)
        << "threads=" << threads;
    const auto stats = testbed.incremental_stats();
    EXPECT_GT(stats.fn_dataflow_computed, 0u);
  }
}

TEST(Incremental, FaultedAndBudgetBoundCollectsMatchPinnedDigests) {
  const auto eco = SmallEcosystem();
  const std::pair<const char*, uint64_t> faulted[] = {
      {"dataflow:0.5,seed:7", kDataflowFaultDigest},
      {"parse:0.3,solver:0.4,dynamic:0.3,intervals:0.2,seed:9", kMixedFaultDigest},
      {"lower:1", kLowerFaultDigest},
  };
  for (const auto& [config, digest] : faulted) {
    support::FaultInjector::ScopedConfig scoped(config);
    EXPECT_EQ(CollectDigest(eco, {}), digest) << config;
  }
  clair::TestbedOptions budget;
  budget.stage_step_budget = 4;
  EXPECT_EQ(CollectDigest(eco, budget), kStepBudgetDigest);
}

TEST(Incremental, ArmedFaultsBypassPayloadTiers) {
  const auto eco = SmallEcosystem();
  const corpus::AppSpec* spec = FindRichSpec(eco, 1, 1);
  ASSERT_NE(spec, nullptr);
  const auto files = eco.GenerateSources(*spec);

  support::FaultInjector::ScopedConfig scoped("dataflow:0.5,seed:7");
  clair::TestbedOptions cache_off_options;
  cache_off_options.cache_functions = false;
  const clair::Testbed testbed(eco, {});
  const clair::Testbed cache_off(eco, cache_off_options);
  // Extracted twice: a faulted attempt's output must not be served back.
  const auto a = testbed.ExtractFeatures(files);
  EXPECT_EQ(testbed.ExtractFeatures(files).values(), a.values());
  EXPECT_EQ(a.values(), cache_off.ExtractFeatures(files).values());
  // With a fault site armed nothing was reused or stored.
  EXPECT_EQ(testbed.incremental_stats().fn_dataflow_reused, 0u);
  EXPECT_EQ(testbed.function_cache_stats().entries, 0u);
  // And the faulted corpus keeps its pinned bytes.
  EXPECT_EQ(CollectDigest(eco, {}), kDataflowFaultDigest);
}

// --- Checkpoint splicing across corpus versions ------------------------------

TEST(CheckpointSplice, StaleRecordsAreReextractedAndSuperseded) {
  const auto eco = SmallEcosystem();
  const std::string ckpt = TempPath("incremental_splice.ckpt");
  std::remove(ckpt.c_str());

  // Sweep 1: the corpus one commit before HEAD, checkpointed.
  clair::TestbedOptions lagged_options;
  lagged_options.version_lag = 1;
  lagged_options.checkpoint_path = ckpt;
  const auto lagged = clair::Testbed(eco, lagged_options).Collect();
  ASSERT_FALSE(lagged.empty());

  // Scratch HEAD sweep: the splice target.
  const auto fresh = clair::Testbed(eco, {}).Collect();
  const std::string golden = clair::SaveRecords(fresh);
  ASSERT_NE(clair::SaveRecords(lagged), golden);

  // Sweep 2: HEAD over the lagged checkpoint. Records whose source digest
  // drifted are re-extracted (warm) and appended last-wins; the result is
  // bit-identical to the scratch HEAD sweep.
  clair::TestbedOptions head_options;
  head_options.checkpoint_path = ckpt;
  const clair::Testbed head_testbed(eco, head_options);
  EXPECT_EQ(clair::SaveRecords(head_testbed.Collect()), golden);
  const auto head_report = head_testbed.run_report();
  EXPECT_GT(head_report.checkpoint_stale_records, 0u);

  // Sweep 3: resume again — every record now matches HEAD digests, so the
  // whole corpus resumes from the checkpoint (last-wins supersede).
  const clair::Testbed resumed_testbed(eco, head_options);
  EXPECT_EQ(clair::SaveRecords(resumed_testbed.Collect()), golden);
  const auto resumed_report = resumed_testbed.run_report();
  EXPECT_EQ(resumed_report.checkpoint_stale_records, 0u);
  EXPECT_EQ(resumed_report.apps_from_checkpoint, fresh.size());
}

TEST(CheckpointSplice, TornTailIsDroppedNotTrusted) {
  const auto eco = SmallEcosystem();
  const std::string ckpt = TempPath("incremental_torn.ckpt");
  std::remove(ckpt.c_str());

  clair::TestbedOptions lagged_options;
  lagged_options.version_lag = 1;
  lagged_options.checkpoint_path = ckpt;
  clair::Testbed(eco, lagged_options).Collect();

  // A kill mid-append: the checkpoint loses the tail of its final block.
  std::string bytes = ReadFile(ckpt);
  ASSERT_GT(bytes.size(), 64u);
  bytes.resize(bytes.size() - 37);
  WriteFile(ckpt, bytes);

  clair::TestbedOptions head_options;
  head_options.checkpoint_path = ckpt;
  const clair::Testbed testbed(eco, head_options);
  const auto records = testbed.Collect();
  EXPECT_EQ(clair::SaveRecords(records),
            clair::SaveRecords(clair::Testbed(eco, {}).Collect()));
  EXPECT_GT(testbed.run_report().checkpoint_dropped_blocks, 0u);
}

// --- Feature-store splicing --------------------------------------------------

TEST(StoreSplice, ByteIdenticalToScratchCollection) {
  const auto eco = SmallEcosystem();
  const std::string lagged_path = TempPath("incremental_store_lag.fst");
  const std::string scratch_path = TempPath("incremental_store_head.fst");
  const std::string spliced_path = TempPath("incremental_store_spliced.fst");

  clair::FunctionRankOptions lagged_options;
  lagged_options.version_lag = 1;
  {
    auto writer = ml::FeatureStoreWriter::Create(
        lagged_path, metrics::FunctionFeatureNames(), clair::FunctionClassNames());
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(clair::CollectFunctionRows(eco, lagged_options, *writer.value()).ok());
    ASSERT_TRUE(writer.value()->Finish().ok());
  }
  clair::FunctionRankOptions head_options;
  {
    auto writer = ml::FeatureStoreWriter::Create(
        scratch_path, metrics::FunctionFeatureNames(), clair::FunctionClassNames());
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(clair::CollectFunctionRows(eco, head_options, *writer.value()).ok());
    ASSERT_TRUE(writer.value()->Finish().ok());
  }

  auto previous = ml::FeatureStore::Open(lagged_path);
  ASSERT_TRUE(previous.ok());
  clair::FunctionCorpusStats stats;
  {
    auto writer = ml::FeatureStoreWriter::Create(
        spliced_path, metrics::FunctionFeatureNames(), clair::FunctionClassNames());
    ASSERT_TRUE(writer.ok());
    auto result = clair::SpliceFunctionRows(eco, head_options, previous.value(),
                                            /*previous_version_lag=*/1,
                                            *writer.value());
    ASSERT_TRUE(result.ok()) << result.error().ToString();
    stats = result.value();
    ASSERT_TRUE(writer.value()->Finish().ok());
  }

  // The spliced store is the scratch store, byte for byte — and most rows
  // rode over from the previous version instead of being re-extracted.
  EXPECT_EQ(ReadFile(spliced_path), ReadFile(scratch_path));
  EXPECT_GT(stats.rows_reused, 0u);
  EXPECT_GT(stats.rows_recomputed, 0u);
  EXPECT_GT(stats.rows_reused, stats.rows_recomputed);
  EXPECT_EQ(stats.rows_reused + stats.rows_recomputed, stats.functions);
}

// --- Eviction accounting through RunReport -----------------------------------

TEST(Incremental, EvictionsSurfaceInRunReport) {
  const auto eco = SmallEcosystem();
  const corpus::AppSpec* spec = FindRichSpec(eco, 1, 1);
  ASSERT_NE(spec, nullptr);
  const auto files = eco.GenerateSources(*spec);

  clair::TestbedOptions tight;
  tight.function_cache_max_bytes = 512;  // Far below one app's payload rows.
  const clair::Testbed testbed(eco, tight);
  const auto squeezed = testbed.ExtractFeatures(files);
  EXPECT_GT(testbed.run_report().cache_evictions, 0u);
  EXPECT_GT(testbed.function_cache_stats().evictions, 0u);

  // Capacity pressure affects performance only, never bytes.
  const clair::Testbed roomy(eco, {});
  EXPECT_EQ(squeezed.values(), roomy.ExtractFeatures(files).values());
}

}  // namespace
