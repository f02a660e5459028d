// End-to-end tests of the clair pipeline: testbed collection over a small
// synthetic ecosystem, hypothesis training with cross-validation, and the
// developer-facing evaluator (version deltas, library ranking).
#include <gtest/gtest.h>

#include <algorithm>

#include "src/clair/evaluator.h"
#include "src/clair/feature_cache.h"
#include "src/clair/hypothesis.h"
#include "src/clair/pipeline.h"
#include "src/clair/serialize.h"
#include "src/clair/testbed.h"
#include "src/corpus/codegen.h"
#include "src/corpus/ecosystem.h"
#include "src/ml/tree.h"
#include "src/support/fault_injection.h"
#include "src/support/strings.h"
#include "src/support/thread_pool.h"

namespace clair {
namespace {

// One shared small ecosystem + testbed for the whole suite (expensive).
class ClairTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus::CorpusOptions corpus_options;
    corpus_options.mature_apps = 48;
    corpus_options.immature_apps = 8;
    corpus_options.size_scale = 0.01;
    ecosystem_ = new corpus::EcosystemGenerator(corpus_options);
    TestbedOptions testbed_options;
    testbed_options.deep_analysis_max_files = 1;
    testbed_ = new Testbed(*ecosystem_, testbed_options);
    records_ = new std::vector<AppRecord>(testbed_->Collect());
  }

  static void TearDownTestSuite() {
    delete records_;
    delete testbed_;
    delete ecosystem_;
    records_ = nullptr;
    testbed_ = nullptr;
    ecosystem_ = nullptr;
  }

  static corpus::EcosystemGenerator* ecosystem_;
  static Testbed* testbed_;
  static std::vector<AppRecord>* records_;
};

corpus::EcosystemGenerator* ClairTest::ecosystem_ = nullptr;
Testbed* ClairTest::testbed_ = nullptr;
std::vector<AppRecord>* ClairTest::records_ = nullptr;

TEST_F(ClairTest, TestbedSelectsAndExtracts) {
  EXPECT_EQ(records_->size(), 48u);
  for (const auto& record : *records_) {
    EXPECT_GT(record.features.Get("loc.code"), 0.0) << record.name;
    EXPECT_GE(record.labels.total, 2) << record.name;
    EXPECT_GE(record.labels.HistoryYears(), 5.0) << record.name;
  }
  // C-family apps must carry parse-level features.
  int with_mccabe = 0;
  for (const auto& record : *records_) {
    if (record.features.Get("mccabe.total") > 0.0) {
      ++with_mccabe;
    }
  }
  EXPECT_GT(with_mccabe, 30);  // ~44 of 48 are C/C++.
}

TEST_F(ClairTest, HypothesisLabelsAreBinaryAndVaried) {
  std::vector<cvedb::AppSummary> summaries;
  for (const auto& record : *records_) {
    summaries.push_back(record.labels);
  }
  const CorpusStats stats = ComputeCorpusStats(summaries);
  for (const auto& hypothesis : StandardHypotheses()) {
    int positives = 0;
    for (const auto& record : *records_) {
      const int label = hypothesis.label(record.labels, stats);
      ASSERT_GE(label, 0);
      ASSERT_LT(label, static_cast<int>(hypothesis.classes.size()));
      positives += label;
    }
    // No hypothesis should be degenerate on this corpus... except possibly
    // cwe121 on a tiny sample; allow [0, n].
    EXPECT_GE(positives, 0);
    EXPECT_LE(positives, static_cast<int>(records_->size()));
  }
}

TEST_F(ClairTest, PipelineBuildsAlignedDatasets) {
  PipelineOptions options;
  options.cv_folds = 4;
  const TrainingPipeline pipeline(*records_, options);
  EXPECT_FALSE(pipeline.feature_names().empty());
  const ml::Dataset data = pipeline.BuildDataset(StandardHypotheses()[0]);
  EXPECT_EQ(data.num_rows(), records_->size());
  EXPECT_EQ(data.num_features(), pipeline.feature_names().size());
}

TEST_F(ClairTest, CrossValidationBeatsCoinFlipOnRecoverableHypotheses) {
  PipelineOptions options;
  options.cv_folds = 4;
  const TrainingPipeline pipeline(*records_, options);
  // av_network's positive rate is driven by taintiness, which the code
  // reflects via input()/sink density — so an above-chance AUC is expected.
  const Hypothesis* hypothesis = FindHypothesis("av_network");
  ASSERT_NE(hypothesis, nullptr);
  const HypothesisReport report = pipeline.EvaluateHypothesis(*hypothesis);
  EXPECT_EQ(report.per_learner.size(), StandardLearners().size());
  EXPECT_FALSE(report.best_learner.empty());
  EXPECT_GT(report.best.accuracy, 0.0);
  EXPECT_FALSE(report.top_features.empty());
}

TEST_F(ClairTest, TrainedModelPredictsInUnitRange) {
  PipelineOptions options;
  options.cv_folds = 4;
  const TrainingPipeline pipeline(*records_, options);
  const TrainedModel model = pipeline.TrainFinal();
  EXPECT_EQ(model.models().size(), StandardHypotheses().size());
  for (const auto& record : *records_) {
    for (const auto& bundle : model.models()) {
      const double risk = bundle.PredictRisk(record.features);
      EXPECT_GE(risk, 0.0);
      EXPECT_LE(risk, 1.0);
    }
  }
}

TEST_F(ClairTest, EvaluatorComparesVersionsAndRanksLibraries) {
  PipelineOptions options;
  options.cv_folds = 4;
  const TrainingPipeline pipeline(*records_, options);
  const TrainedModel model = pipeline.TrainFinal();
  const SecurityEvaluator evaluator(model, *testbed_);

  // Two synthetic libraries: one generated with maximally safe style, one
  // maximally unsafe — using style extremes far beyond the training spread.
  corpus::AppStyle safe;
  safe.complexity = 0.05;
  safe.unsafety = 0.0;
  safe.taintiness = 0.1;
  corpus::AppStyle unsafe_style;
  unsafe_style.complexity = 0.95;
  unsafe_style.unsafety = 1.0;
  unsafe_style.taintiness = 0.95;
  auto make_files = [](const corpus::AppStyle& style, uint64_t seed) {
    support::Rng rng(seed);
    std::vector<metrics::SourceFile> files;
    metrics::SourceFile file;
    file.path = "lib.c";
    file.language = metrics::Language::kMiniC;
    file.text = corpus::GenerateMiniCFile(rng, style, 600);
    files.push_back(std::move(file));
    return files;
  };
  const auto safe_files = make_files(safe, 101);
  const auto unsafe_files = make_files(unsafe_style, 101);

  const SecurityReport safe_report = evaluator.Evaluate("safelib", safe_files);
  const SecurityReport unsafe_report = evaluator.Evaluate("unsafelib", unsafe_files);
  EXPECT_FALSE(safe_report.predictions.empty());
  EXPECT_FALSE(safe_report.ToString().empty());

  const auto ranked = evaluator.RankLibraries(
      {{"unsafelib", unsafe_files}, {"safelib", safe_files}});
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_LE(ranked[0].overall_risk, ranked[1].overall_risk);

  const VersionDelta delta = evaluator.CompareVersions(safe_files, unsafe_files);
  EXPECT_NEAR(delta.risk_delta,
              unsafe_report.overall_risk - safe_report.overall_risk, 1e-12);
  // Contributing features are the top five of the model's live importance
  // (empty for learners without one, such as k-NN).
  size_t with_importance = 0;
  for (const SecurityReport* report : {&safe_report, &unsafe_report}) {
    ASSERT_EQ(report->predictions.size(), model.models().size());
    for (const auto& prediction : report->predictions) {
      const HypothesisModel* bundle = model.ForHypothesis(prediction.hypothesis_id);
      ASSERT_NE(bundle, nullptr);
      auto importance = bundle->model->FeatureImportance();
      importance.resize(std::min<size_t>(importance.size(), 5));
      with_importance += importance.empty() ? 0 : 1;
      EXPECT_EQ(prediction.contributing_features, importance) << prediction.hypothesis_id;
    }
  }
  EXPECT_GT(with_importance, 0u);
  EXPECT_EQ(delta.by_hypothesis.size(), StandardHypotheses().size());
  EXPECT_FALSE(delta.ToString().empty());
}

TEST_F(ClairTest, DeepAnalysisBudgetCountsAttemptedFiles) {
  // Policy under test (TestbedOptions): the first `deep_analysis_max_files`
  // MiniC files in order consume the budget whether or not they parse.
  metrics::SourceFile broken;
  broken.path = "broken.c";
  broken.language = metrics::Language::kMiniC;
  broken.text = "int main( { this does not parse";
  support::Rng rng(77);
  corpus::AppStyle style;
  metrics::SourceFile good;
  good.path = "good.c";
  good.language = metrics::Language::kMiniC;
  good.text = corpus::GenerateMiniCFile(rng, style, 120);

  TestbedOptions options;
  options.deep_analysis_max_files = 1;
  const Testbed tight(*ecosystem_, options);
  const auto spent_on_failure = tight.ExtractFeatures({broken, good});
  // The unparseable file spent the only slot; nothing was deep-analysed.
  EXPECT_EQ(spent_on_failure.Get("deep.files_attempted"), 1.0);
  EXPECT_EQ(spent_on_failure.Get("deep.files_analyzed"), 0.0);
  EXPECT_FALSE(spent_on_failure.Has("dataflow.instructions"));

  options.deep_analysis_max_files = 2;
  const Testbed wide(*ecosystem_, options);
  const auto with_budget = wide.ExtractFeatures({broken, good});
  EXPECT_EQ(with_budget.Get("deep.files_attempted"), 2.0);
  EXPECT_EQ(with_budget.Get("deep.files_analyzed"), 1.0);

  // Non-MiniC files never consume deep budget.
  metrics::SourceFile python;
  python.path = "tool.py";
  python.language = metrics::Language::kPython;
  python.text = "def f():\n    return 1\n";
  const auto python_only = tight.ExtractFeatures({python});
  EXPECT_EQ(python_only.Get("deep.files_attempted"), 0.0);
  EXPECT_EQ(python_only.Get("deep.files_analyzed"), 0.0);
}

TEST_F(ClairTest, FeatureCacheHitsOnIdenticalInputAndRespectsOptions) {
  support::Rng rng(101);
  corpus::AppStyle style;
  metrics::SourceFile file;
  file.path = "cached.c";
  file.language = metrics::Language::kMiniC;
  file.text = corpus::GenerateMiniCFile(rng, style, 150);
  const std::vector<metrics::SourceFile> files = {file};

  TestbedOptions options;
  options.deep_analysis_max_files = 1;
  const Testbed cached(*ecosystem_, options);
  const auto first = cached.ExtractFeatures(files);
  EXPECT_EQ(cached.cache_stats().hits, 0u);
  EXPECT_EQ(cached.cache_stats().misses, 1u);
  const auto second = cached.ExtractFeatures(files);
  EXPECT_EQ(cached.cache_stats().hits, 1u);
  EXPECT_EQ(cached.cache_stats().entries, 1u);
  EXPECT_TRUE(first.values() == second.values());

  // A content change is a different key.
  auto changed = files;
  changed[0].text += "\nint extra(int a) { return a; }\n";
  (void)cached.ExtractFeatures(changed);
  EXPECT_EQ(cached.cache_stats().misses, 2u);

  // Same sources under different extraction options must not share rows.
  TestbedOptions shallow = options;
  shallow.with_symexec = false;
  const Testbed other(*ecosystem_, shallow);
  const auto without_symexec = other.ExtractFeatures(files);
  EXPECT_FALSE(without_symexec.values() == first.values());

  // Disabled cache: no counters move.
  TestbedOptions off = options;
  off.cache_features = false;
  const Testbed uncached(*ecosystem_, off);
  (void)uncached.ExtractFeatures(files);
  EXPECT_EQ(uncached.cache_stats().hits, 0u);
  EXPECT_EQ(uncached.cache_stats().misses, 0u);
}

TEST_F(ClairTest, FeatureCacheRejectsCorruptRowsAndRecomputes) {
  // Satellite of the robustness layer: a silently mutated cached row must
  // not be served — the lookup-time checksum evicts it and the caller
  // recomputes, with the event visible in integrity_rejects.
  FeatureCache cache;
  metrics::FeatureVector row;
  row.Set("loc.code", 123.0);
  row.Set("mccabe.total", 7.0);
  cache.Insert(42, row);
  metrics::FeatureVector out;
  ASSERT_TRUE(cache.Lookup(42, &out));
  EXPECT_TRUE(out.values() == row.values());

  ASSERT_TRUE(cache.CorruptEntryForTest(42));
  EXPECT_FALSE(cache.Lookup(42, &out));  // Rejected, evicted, counted a miss.
  const auto stats = cache.stats();
  EXPECT_EQ(stats.integrity_rejects, 1u);
  EXPECT_EQ(stats.entries, 0u);
  // Recompute-and-reinsert restores normal service.
  cache.Insert(42, row);
  ASSERT_TRUE(cache.Lookup(42, &out));
  EXPECT_TRUE(out.values() == row.values());

  // An injected cache fault behaves like corruption: reject + recompute.
  cache.Insert(43, row);
  {
    support::FaultInjector::ScopedConfig scoped("cache:1");
    EXPECT_FALSE(cache.Lookup(43, &out));
  }
  EXPECT_EQ(cache.stats().integrity_rejects, 2u);
}

TEST_F(ClairTest, BudgetPolicyHoldsUnderInjectedParseFaults) {
  // Satellite of the robustness layer: a file whose parse is *injected* to
  // fail must behave exactly like an organically unparseable file — it
  // consumes its deep-analysis budget slot, later files keep their
  // position-derived dynamic seeds, and the row completes with robust.*
  // provenance instead of aborting.
  support::Rng rng(909);
  corpus::AppStyle style;
  metrics::SourceFile first;
  first.path = "a_first.c";
  first.language = metrics::Language::kMiniC;
  first.text = corpus::GenerateMiniCFile(rng, style, 100);
  metrics::SourceFile second;
  second.path = "b_second.c";
  second.language = metrics::Language::kMiniC;
  second.text = corpus::GenerateMiniCFile(rng, style, 100);

  TestbedOptions options;
  options.deep_analysis_max_files = 2;
  options.cache_features = false;
  options.stage_retries = 0;  // Deterministic single verdict per file.
  const Testbed testbed(*ecosystem_, options);

  const auto clean = testbed.ExtractFeatures({first, second});
  EXPECT_EQ(clean.Get("deep.files_attempted"), 2.0);
  EXPECT_EQ(clean.Get("deep.files_analyzed"), 2.0);
  EXPECT_FALSE(clean.Has("robust.parse_degraded"));

  // Fail only the first file's parse: key the injection off its digest.
  metrics::FeatureVector faulted;
  {
    support::FaultInjector::ScopedConfig scoped("parse:0.45,seed:5");
    // Find a seed-dependent split where exactly one of the two files fails;
    // scan seeds deterministically until the verdicts differ.
    faulted = testbed.ExtractFeatures({first, second});
    if (faulted.Get("robust.parse_degraded") != 1.0) {
      bool found = false;
      for (int seed = 1; seed <= 64 && !found; ++seed) {
        support::FaultInjector::ScopedConfig rescoped(
            support::Format("parse:0.45,seed:%d", seed));
        faulted = testbed.ExtractFeatures({first, second});
        found = faulted.Get("robust.parse_degraded") == 1.0;
      }
      ASSERT_TRUE(found) << "no seed split the two files in 64 tries";
    }
  }
  // Both slots were spent; only one file was deep-analysed.
  EXPECT_EQ(faulted.Get("deep.files_attempted"), 2.0);
  EXPECT_EQ(faulted.Get("deep.files_analyzed"), 1.0);
  EXPECT_EQ(faulted.Get("robust.parse_failures"), 1.0);
  // The surviving file's dynamic stream is a function of its *position*
  // (attempt index), not of the other file's outcome: the clean run's
  // per-position seeds are the same, so dynamic.runs is identical whenever
  // the second file survived (one entry set, same trial count).
  if (faulted.Has("dynamic.runs")) {
    EXPECT_GT(faulted.Get("dynamic.runs"), 0.0);
  }
}

TEST_F(ClairTest, CachedAndUncachedRowsAreBitIdentical) {
  // Rows served by the feature cache must be byte-for-byte the rows the
  // extractor would have produced — including robust.* provenance.
  support::Rng rng(311);
  corpus::AppStyle style;
  metrics::SourceFile file;
  file.path = "roundtrip.c";
  file.language = metrics::Language::kMiniC;
  file.text = corpus::GenerateMiniCFile(rng, style, 140);
  const std::vector<metrics::SourceFile> files = {file};

  TestbedOptions with_cache;
  with_cache.deep_analysis_max_files = 1;
  const Testbed cached(*ecosystem_, with_cache);
  TestbedOptions no_cache = with_cache;
  no_cache.cache_features = false;
  const Testbed uncached(*ecosystem_, no_cache);

  const auto cold = cached.ExtractFeatures(files);
  const auto warm = cached.ExtractFeatures(files);
  const auto direct = uncached.ExtractFeatures(files);
  EXPECT_EQ(cached.cache_stats().hits, 1u);
  EXPECT_TRUE(cold.values() == warm.values());
  EXPECT_TRUE(cold.values() == direct.values());

  // Same under forced solver faults: the faulted config gets its own cache
  // key (the injector fingerprint is part of it), and the cached faulted
  // row equals the uncached faulted row.
  support::FaultInjector::ScopedConfig scoped("solver:1");
  const auto faulted_cold = cached.ExtractFeatures(files);
  const auto faulted_warm = cached.ExtractFeatures(files);
  const auto faulted_direct = uncached.ExtractFeatures(files);
  EXPECT_TRUE(faulted_cold.values() == faulted_warm.values());
  EXPECT_TRUE(faulted_cold.values() == faulted_direct.values());
  EXPECT_FALSE(faulted_cold.values() == cold.values());
  EXPECT_EQ(faulted_cold.Get("robust.symexec_degraded"), 1.0);
}

// The paper-scale determinism guarantee: the feature matrix, forest
// predictions, and CV scores are bit-identical at 1 worker and at 4.
TEST(ClairDeterminism, ParallelRuntimeIsBitIdenticalToSerial) {
  corpus::CorpusOptions corpus_options;
  corpus_options.mature_apps = 10;
  corpus_options.immature_apps = 2;
  corpus_options.size_scale = 0.01;
  const corpus::EcosystemGenerator ecosystem(corpus_options);

  const auto collect = [&](int threads) {
    TestbedOptions options;
    options.deep_analysis_max_files = 1;
    options.threads = threads;
    const Testbed testbed(ecosystem, options);
    return testbed.Collect();
  };
  const auto serial_records = collect(1);
  const auto parallel_records = collect(4);
  // Byte-identical matrix: the serialized rows are the canonical encoding.
  EXPECT_EQ(SaveRecords(serial_records), SaveRecords(parallel_records));

  // Forest training + prediction and CV under a 1-worker vs 4-worker global
  // pool. Exact equality on every probability and metric.
  const auto evaluate = [&](const std::vector<AppRecord>& records, int threads) {
    support::ThreadPool::SetGlobalThreads(threads);
    PipelineOptions options;
    options.cv_folds = 3;
    const TrainingPipeline pipeline(records, options);
    const Hypothesis& hypothesis = StandardHypotheses()[0];
    ml::Dataset data = pipeline.BuildDataset(hypothesis);
    pipeline.ApplyTransforms(data, nullptr);
    ml::ForestOptions forest_options;
    forest_options.num_trees = 16;
    forest_options.seed = 13;
    ml::RandomForestClassifier forest(forest_options);
    forest.Train(data);
    std::vector<double> outputs;
    for (size_t row = 0; row < data.num_rows(); ++row) {
      const auto proba = forest.PredictProba(data.Row(row));
      outputs.insert(outputs.end(), proba.begin(), proba.end());
    }
    const ml::CvMetrics cv = ml::CrossValidate(
        data,
        [] {
          ml::ForestOptions inner;
          inner.num_trees = 8;
          inner.seed = 5;
          return std::unique_ptr<ml::Classifier>(new ml::RandomForestClassifier(inner));
        },
        3, options.seed);
    outputs.push_back(cv.accuracy);
    outputs.push_back(cv.macro_f1);
    outputs.push_back(cv.auc);
    support::ThreadPool::SetGlobalThreads(0);
    return outputs;
  };
  const auto serial_outputs = evaluate(serial_records, 1);
  const auto parallel_outputs = evaluate(serial_records, 4);
  ASSERT_EQ(serial_outputs.size(), parallel_outputs.size());
  for (size_t i = 0; i < serial_outputs.size(); ++i) {
    EXPECT_EQ(serial_outputs[i], parallel_outputs[i]) << i;
  }
}

TEST(ClairStats, CorpusStatsMedians) {
  cvedb::AppSummary a;
  a.total = 10;
  a.first = 0;
  a.last = 10 * cvedb::kDaysPerYear;
  cvedb::AppSummary b;
  b.total = 30;
  b.first = 0;
  b.last = 5 * cvedb::kDaysPerYear;
  const CorpusStats stats = ComputeCorpusStats({a, b});
  EXPECT_DOUBLE_EQ(stats.median_total_vulns, 20.0);
  EXPECT_DOUBLE_EQ(stats.median_vulns_per_year, 3.5);  // (1 + 6) / 2.
}

TEST(ClairSerialize, MalformedLabelDayIsAParseError) {
  AppRecord record;
  record.name = "app0";
  record.labels.app = "app0";
  record.labels.total = 3;
  record.labels.first = 120;
  record.labels.last = 2400;
  record.labels.max_score = 7.5;
  record.features.Set("loc.total", 42.0);
  const std::string text = SaveRecords({record});
  const auto loaded = LoadRecords(text);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().size(), 1u);
  EXPECT_EQ(loaded.value()[0].labels.first, 120);
  EXPECT_EQ(loaded.value()[0].labels.last, 2400);
  EXPECT_EQ(SaveRecords(loaded.value()), text);

  for (const std::string key : {"label.first=", "label.last="}) {
    for (const std::string bad : {"", "x9", "12z"}) {
      std::string broken = text;
      const size_t at = broken.find(key);
      ASSERT_NE(at, std::string::npos);
      const size_t end = broken.find('\n', at);
      broken.replace(at, end - at, key + bad);
      EXPECT_FALSE(LoadRecords(broken).ok()) << key << bad;
    }
  }
}

TEST(ClairHypotheses, LookupAndMitigations) {
  EXPECT_NE(FindHypothesis("cwe121"), nullptr);
  EXPECT_EQ(FindHypothesis("nonsense"), nullptr);
  for (const auto& hypothesis : StandardHypotheses()) {
    EXPECT_FALSE(hypothesis.mitigation.empty()) << hypothesis.id;
    EXPECT_EQ(hypothesis.classes.size(), 2u);
  }
}

}  // namespace
}  // namespace clair
