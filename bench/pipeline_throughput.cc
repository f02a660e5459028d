// §5.3: "the security evaluation requires very little effort from the
// developers" — end-to-end latency of the developer-facing path: feature
// extraction + per-hypothesis prediction on an already-trained model, plus
// the training-phase hot path (histogram-binned forest training vs the
// sort-based exact reference).
//
// Emits machine-readable results to BENCH_pipeline.json in the working
// directory. `--smoke` runs a reduced corpus/dataset, skips the
// google-benchmark timing loops, and still writes the JSON (the ctest
// `mlperf` label runs this mode).
#include <benchmark/benchmark.h>
#include <sys/stat.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "bench/common.h"
#include "src/clair/evaluator.h"
#include "src/clair/function_rank.h"
#include "src/clair/incremental.h"
#include "src/clair/pipeline.h"
#include "src/clair/serialize.h"
#include "src/clair/shard.h"
#include "src/clair/testbed.h"
#include "src/corpus/codegen.h"
#include "src/corpus/history.h"
#include "src/dataflow/analyses.h"
#include "src/dataflow/intervals.h"
#include "src/lang/parser.h"
#include "src/ml/eval.h"
#include "src/ml/tree.h"
#include "src/report/render.h"
#include "src/support/fault_injection.h"
#include "src/support/strings.h"
#include "src/support/thread_pool.h"

namespace {

double Seconds(std::chrono::steady_clock::time_point t0,
               std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

// Accumulates results for BENCH_pipeline.json: per-stage milliseconds (with
// optional rows/s), the thread sweep, and the training mode comparison.
// The emitter itself is the shared benchcommon::JsonSink; this wrapper only
// renders the bench's nested sections.
class JsonSink {
 public:
  void AddStage(const std::string& name, double ms, double rows_per_sec = 0.0) {
    stages_.push_back(support::Format(
        "    {\"name\": \"%s\", \"ms\": %.3f, \"rows_per_sec\": %.1f}", name.c_str(), ms,
        rows_per_sec));
  }
  void AddThreadSweep(int workers, double seconds, double apps_per_sec) {
    sweep_.push_back(support::Format(
        "    {\"workers\": %d, \"seconds\": %.3f, \"apps_per_sec\": %.2f}", workers,
        seconds, apps_per_sec));
  }
  void SetTraining(size_t rows, size_t features, double train_speedup,
                   double cv_speedup) {
    training_ = support::Format(
        "{\"rows\": %zu, \"features\": %zu, "
        "\"train_speedup_histogram_vs_exact\": %.2f, "
        "\"cv_speedup_histogram_vs_exact\": %.2f}",
        rows, features, train_speedup, cv_speedup);
  }
  void SetDataflow(size_t modules, double speedup, bool identical) {
    dataflow_ = support::Format(
        "{\"modules\": %zu, \"engine_vs_reference_speedup\": %.2f, "
        "\"features_identical\": %s}",
        modules, speedup, identical ? "true" : "false");
  }
  void SetRobustness(const std::string& faults, const clair::RunReport& report) {
    robustness_ = support::Format(
        "{\"faults\": \"%s\", \"apps\": %llu, "
        "\"stage_failures\": %llu, \"stages_degraded\": %llu}",
        faults.c_str(), static_cast<unsigned long long>(report.apps_total),
        static_cast<unsigned long long>(report.TotalFailures()),
        static_cast<unsigned long long>(report.TotalDegraded()));
  }
  void AddShardSweep(int workers, double seconds, double apps_per_sec,
                     bool identical) {
    shard_sweep_.push_back(support::Format(
        "    {\"workers\": %d, \"seconds\": %.3f, \"apps_per_sec\": %.2f, "
        "\"merge_identical\": %s}",
        workers, seconds, apps_per_sec, identical ? "true" : "false"));
  }
  void SetShardChaos(const std::string& faults, const clair::ShardSweepStats& stats,
                     bool identical) {
    shard_chaos_ = support::Format(
        "{\"faults\": \"%s\", \"worker_crashes\": %llu, \"shards_stolen\": %llu, "
        "\"leases_revoked\": %llu, \"dropped_blocks\": %llu, "
        "\"merge_identical\": %s}",
        faults.c_str(), static_cast<unsigned long long>(stats.worker_crashes),
        static_cast<unsigned long long>(stats.shards_stolen),
        static_cast<unsigned long long>(stats.leases_revoked),
        static_cast<unsigned long long>(stats.checkpoint_dropped_blocks),
        identical ? "true" : "false");
  }

  bool Write(const std::string& path) const {
    benchcommon::JsonSink sink;
    sink.Add("bench", "pipeline_throughput", true);
    if (!training_.empty()) {
      sink.AddRaw("training", training_);
    }
    if (!dataflow_.empty()) {
      sink.AddRaw("dataflow", dataflow_);
    }
    if (!robustness_.empty()) {
      sink.AddRaw("robustness", robustness_);
    }
    if (!shard_chaos_.empty()) {
      sink.AddRaw("shard_chaos", shard_chaos_);
    }
    sink.AddRaw("stages", JoinArray(stages_));
    sink.AddRaw("thread_sweep", JoinArray(sweep_));
    if (!shard_sweep_.empty()) {
      sink.AddRaw("shard_sweep", JoinArray(shard_sweep_));
    }
    return sink.WriteTo(path);
  }

 private:
  static std::string JoinArray(const std::vector<std::string>& items) {
    std::string out = "[\n";
    for (size_t i = 0; i < items.size(); ++i) {
      out += items[i];
      out += i + 1 < items.size() ? ",\n" : "\n";
    }
    out += "  ]";
    return out;
  }

  std::vector<std::string> stages_;
  std::vector<std::string> sweep_;
  std::vector<std::string> shard_sweep_;
  std::string training_;
  std::string dataflow_;
  std::string robustness_;
  std::string shard_chaos_;
};

class Fixture {
 public:
  static Fixture& Get() {
    static Fixture* instance = new Fixture();
    return *instance;
  }

  const clair::Testbed& testbed() const { return *testbed_; }
  const clair::TrainedModel& model() const { return model_; }

 private:
  Fixture() {
    corpus::CorpusOptions corpus_options;
    corpus_options.mature_apps = 48;
    corpus_options.immature_apps = 8;
    corpus_options.size_scale = 0.01;
    ecosystem_ = std::make_unique<corpus::EcosystemGenerator>(corpus_options);
    clair::TestbedOptions testbed_options;
    testbed_options.deep_analysis_max_files = 1;
    testbed_ = std::make_unique<clair::Testbed>(*ecosystem_, testbed_options);
    clair::PipelineOptions pipeline_options;
    pipeline_options.cv_folds = 5;
    const clair::TrainingPipeline pipeline(testbed_->Collect(), pipeline_options);
    model_ = pipeline.TrainFinal();
  }

  std::unique_ptr<corpus::EcosystemGenerator> ecosystem_;
  std::unique_ptr<clair::Testbed> testbed_;
  clair::TrainedModel model_;
};

std::vector<metrics::SourceFile> MakeSubject(int lines) {
  support::Rng rng(7);
  corpus::AppStyle style;
  metrics::SourceFile file;
  file.path = "subject.c";
  file.language = metrics::Language::kMiniC;
  file.text = corpus::GenerateMiniCFile(rng, style, lines);
  return {file};
}

// Synthetic training matrix with continuous features (> 256 distinct values
// per column, so the histogram path really quantile-compresses) and a weak
// multivariate signal — shaped like the corpus feature matrix but big enough
// that split finding dominates.
ml::Dataset MakeTrainingDataset(size_t rows, size_t features, uint64_t seed) {
  std::vector<std::string> names;
  names.reserve(features);
  for (size_t j = 0; j < features; ++j) {
    names.push_back(support::Format("f%zu", j));
  }
  ml::Dataset data = ml::Dataset::ForClassification(std::move(names), {"neg", "pos"});
  data.Reserve(rows);
  support::Rng rng(seed);
  std::vector<double> row(features);
  for (size_t i = 0; i < rows; ++i) {
    const double label = i % 2 == 0 ? 0.0 : 1.0;
    for (size_t j = 0; j < features; ++j) {
      const double signal = j < 4 ? label * 0.8 : 0.0;
      row[j] = signal + rng.Normal(0.0, 1.0);
    }
    data.AddRow(row, label);
  }
  return data;
}

// Forest training + 5-fold CV in histogram vs exact split mode on the same
// dataset. The histogram path pays one binning pass, then every tree node is
// an O(rows + bins) scan instead of an O(rows log rows) sort; CV folds train
// on row-index views over the shared binned codes instead of Subset copies.
void PrintTrainingThroughput(bool smoke, JsonSink& json) {
  benchcommon::PrintHeader("Forest training",
                           "histogram-binned vs exact sort-based split search");
  const size_t rows = smoke ? 600 : 4000;
  const size_t features = 32;
  const int num_trees = smoke ? 12 : 48;
  const ml::Dataset data = MakeTrainingDataset(rows, features, 11);

  struct ModeResult {
    double train_seconds = 0.0;
    double cv_seconds = 0.0;
    double cv_accuracy = 0.0;
  };
  const auto run_mode = [&](ml::SplitMode mode) {
    ModeResult result;
    ml::ForestOptions options;
    options.num_trees = num_trees;
    options.tree.max_depth = 10;
    options.tree.split_mode = mode;
    options.seed = 13;
    {
      // Fresh dataset copy shares no binned cache with the CV run below, so
      // the train row includes the one-time binning pass (cold cost).
      const ml::Dataset cold = MakeTrainingDataset(rows, features, 11);
      ml::RandomForestClassifier forest(options);
      const auto t0 = std::chrono::steady_clock::now();
      forest.Train(cold);
      result.train_seconds = Seconds(t0, std::chrono::steady_clock::now());
    }
    {
      const auto t0 = std::chrono::steady_clock::now();
      const ml::CvMetrics cv = ml::CrossValidate(
          data,
          [&options] {
            return std::unique_ptr<ml::Classifier>(new ml::RandomForestClassifier(options));
          },
          5, 1);
      result.cv_seconds = Seconds(t0, std::chrono::steady_clock::now());
      result.cv_accuracy = cv.accuracy;
    }
    return result;
  };

  const ModeResult histogram = run_mode(ml::SplitMode::kHistogram);
  const ModeResult exact = run_mode(ml::SplitMode::kExact);
  const double train_speedup = exact.train_seconds / histogram.train_seconds;
  const double cv_speedup = exact.cv_seconds / histogram.cv_seconds;
  const auto rows_per_sec = [&](double seconds) {
    return static_cast<double>(rows) / seconds;
  };

  std::vector<std::vector<std::string>> table;
  table.push_back({"histogram", support::Format("%.3f s", histogram.train_seconds),
                   support::Format("%.0f", rows_per_sec(histogram.train_seconds)),
                   support::Format("%.3f s", histogram.cv_seconds),
                   support::Format("%.3f", histogram.cv_accuracy)});
  table.push_back({"exact", support::Format("%.3f s", exact.train_seconds),
                   support::Format("%.0f", rows_per_sec(exact.train_seconds)),
                   support::Format("%.3f s", exact.cv_seconds),
                   support::Format("%.3f", exact.cv_accuracy)});
  std::printf("%zu rows x %zu continuous features, %d trees, depth 10, 5-fold CV\n\n",
              rows, features, num_trees);
  std::printf("%s\n",
              report::RenderTable(
                  {"split mode", "forest train", "rows/s", "5-fold CV", "CV accuracy"},
                  table)
                  .c_str());
  std::printf("histogram vs exact: %.2fx on training, %.2fx on CV; accuracy gap %.4f\n"
              "(acceptance bar: >= 3x, accuracy within 0.01)\n\n",
              train_speedup, cv_speedup,
              std::fabs(histogram.cv_accuracy - exact.cv_accuracy));

  json.AddStage("forest_train_histogram", histogram.train_seconds * 1000.0,
                rows_per_sec(histogram.train_seconds));
  json.AddStage("forest_train_exact", exact.train_seconds * 1000.0,
                rows_per_sec(exact.train_seconds));
  json.AddStage("forest_cv_histogram", histogram.cv_seconds * 1000.0,
                rows_per_sec(histogram.cv_seconds));
  json.AddStage("forest_cv_exact", exact.cv_seconds * 1000.0,
                rows_per_sec(exact.cv_seconds));
  json.SetTraining(rows, features, train_speedup, cv_speedup);
}

void PrintLatencies(JsonSink& json) {
  benchcommon::PrintHeader("Pipeline throughput",
                           "developer-facing evaluation latency (trained model)");
  auto& fixture = Fixture::Get();
  const clair::SecurityEvaluator evaluator(fixture.model(), fixture.testbed());
  std::vector<std::vector<std::string>> rows;
  for (const int lines : {100, 500, 2000, 8000}) {
    const auto files = MakeSubject(lines);
    const auto t0 = std::chrono::steady_clock::now();
    const auto report = evaluator.Evaluate("subject", files);
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count() / 1000.0;
    rows.push_back({std::to_string(lines), support::Format("%.1f ms", ms),
                    support::Format("%.3f", report.overall_risk)});
    json.AddStage(support::Format("evaluate_%d_loc", lines), ms);
  }
  std::printf("%s\n",
              report::RenderTable({"subject LoC", "evaluation latency", "overall risk"},
                                  rows)
                  .c_str());
  std::printf("training is offline (once per corpus refresh); evaluation is the\n"
              "developer-visible cost and stays interactive.\n\n");
}

// Thread-scaling sweep: full testbed collection (source synthesis + the
// extraction battery per app) at 1/2/4/N workers. Caching is off so every
// row measures real extraction work; determinism tests elsewhere prove the
// output is bit-identical across all rows.
void PrintThreadScaling(bool smoke, JsonSink& json) {
  benchcommon::PrintHeader("Thread scaling",
                           "parallel testbed collection at 1..N workers");
  const auto ecosystem = smoke
                             ? benchcommon::MakeEcosystem(0.01, 24, 4)
                             : benchcommon::MakeEcosystem(benchcommon::EnvScale(0.01));
  const int hw = support::ResolveThreadCount(0);
  std::vector<int> worker_counts = smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4};
  if (!smoke && hw > 4) {
    worker_counts.push_back(hw);
  }
  std::vector<std::vector<std::string>> rows;
  double serial_seconds = 0.0;
  size_t apps = 0;
  for (const int workers : worker_counts) {
    clair::TestbedOptions options;
    options.deep_analysis_max_files = 1;
    options.cache_features = false;  // Cold rows; the cache is measured below.
    options.threads = workers;
    const clair::Testbed testbed(ecosystem, options);
    const auto t0 = std::chrono::steady_clock::now();
    const auto records = testbed.Collect();
    const auto t1 = std::chrono::steady_clock::now();
    const double seconds = Seconds(t0, t1);
    apps = records.size();
    if (workers == worker_counts.front()) {
      serial_seconds = seconds;
    }
    rows.push_back({std::to_string(workers), support::Format("%.2f s", seconds),
                    support::Format("%.1f", static_cast<double>(apps) / seconds),
                    support::Format("%.2fx", serial_seconds / seconds)});
    json.AddThreadSweep(workers, seconds, static_cast<double>(apps) / seconds);
  }
  std::printf("%zu apps per sweep; hardware threads on this machine: %d\n\n", apps, hw);
  std::printf("%s\n", report::RenderTable({"workers", "collection time", "apps/sec",
                                           "speedup vs 1 worker"},
                                          rows)
                          .c_str());
  std::printf("workers set via TestbedOptions.threads (dedicated pool); production\n"
              "runs size the global pool from CLAIR_THREADS. per-app tasks are\n"
              "independent and seeded by index, so every row yields the same bytes.\n\n");
}

// Content-addressed feature-row cache: a second sweep over unchanged sources
// replays extraction from FNV-1a-keyed rows. The warm/cold ratio is
// core-count-independent (it removes the work rather than spreading it).
void PrintCacheEffect(bool smoke, JsonSink& json) {
  benchcommon::PrintHeader("Feature-row cache",
                           "cold vs warm testbed sweep (content-addressed rows)");
  const auto ecosystem = smoke
                             ? benchcommon::MakeEcosystem(0.01, 24, 4)
                             : benchcommon::MakeEcosystem(benchcommon::EnvScale(0.01));
  clair::TestbedOptions options;
  options.deep_analysis_max_files = 1;
  options.threads = 1;
  const clair::Testbed testbed(ecosystem, options);
  const auto timed_sweep = [&] {
    const auto t0 = std::chrono::steady_clock::now();
    const auto records = testbed.Collect();
    const auto t1 = std::chrono::steady_clock::now();
    return std::make_pair(Seconds(t0, t1), records.size());
  };
  const auto [cold_seconds, apps] = timed_sweep();
  const auto cold_stats = testbed.cache_stats();
  const auto [warm_seconds, apps2] = timed_sweep();
  const auto warm_stats = testbed.cache_stats();
  (void)apps2;
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"cold", support::Format("%.2f s", cold_seconds),
                  support::Format("%llu", static_cast<unsigned long long>(cold_stats.hits)),
                  support::Format("%llu", static_cast<unsigned long long>(cold_stats.misses)),
                  "1.00x"});
  rows.push_back(
      {"warm", support::Format("%.2f s", warm_seconds),
       support::Format("%llu", static_cast<unsigned long long>(warm_stats.hits - cold_stats.hits)),
       support::Format("%llu",
                       static_cast<unsigned long long>(warm_stats.misses - cold_stats.misses)),
       support::Format("%.2fx", cold_seconds / warm_seconds)});
  std::printf("%zu apps per sweep; cache keyed on file bytes + extraction options\n\n",
              apps);
  std::printf("%s\n",
              report::RenderTable({"sweep", "time", "cache hits", "cache misses", "speedup"},
                                  rows)
                  .c_str());
  std::printf("warm sweeps skip parsing, dataflow, symexec and dynamic tracing for\n"
              "unchanged files — the common case in incremental corpus refreshes.\n\n");
  json.AddStage("testbed_sweep_cold", cold_seconds * 1000.0);
  json.AddStage("testbed_sweep_warm", warm_seconds * 1000.0);
}

// Dataflow fixpoint engine vs the dense reference sweeps on lowered MiniC
// modules: the pipeline-level view of the word-packed bitset + priority
// worklist (bench/dataflow_fixpoint has the per-analysis breakdown on
// synthetic CFG tiers). Feature maps are required to match exactly — the
// engine is a pure scheduling/representation change.
void PrintDataflow(bool smoke, JsonSink& json) {
  benchcommon::PrintHeader("Dataflow fixpoints",
                           "packed-bitset worklist engine vs dense reference sweeps");
  const int num_modules = smoke ? 6 : 24;
  const int target_lines = smoke ? 300 : 1200;
  support::Rng rng(29);
  corpus::AppStyle style;
  std::vector<lang::IrModule> modules;
  for (int i = 0; i < num_modules; ++i) {
    auto unit = lang::Parse(corpus::GenerateMiniCFile(rng, style, target_lines));
    if (!unit.ok()) {
      continue;
    }
    auto module = lang::LowerToIr(unit.value());
    if (module.ok()) {
      modules.push_back(std::move(module.value()));
    }
  }
  const auto run_mode = [&](dataflow::DataflowMode mode) {
    std::vector<metrics::FeatureVector> features;
    features.reserve(modules.size());
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto& module : modules) {
      metrics::FeatureVector fv = dataflow::DataflowFeatures(module, nullptr, mode);
      dataflow::IntervalOptions options;
      options.mode = mode;
      const metrics::FeatureVector ai = dataflow::IntervalFeatures(module, options);
      for (const auto& [key, value] : ai.values()) {
        fv.Set(key, value);
      }
      features.push_back(std::move(fv));
    }
    const double seconds = Seconds(t0, std::chrono::steady_clock::now());
    return std::make_pair(seconds, std::move(features));
  };
  const auto [engine_seconds, engine_features] = run_mode(dataflow::DataflowMode::kEngine);
  const auto [reference_seconds, reference_features] =
      run_mode(dataflow::DataflowMode::kReference);
  bool identical = engine_features.size() == reference_features.size();
  for (size_t i = 0; identical && i < engine_features.size(); ++i) {
    identical = engine_features[i].values() == reference_features[i].values();
  }
  const double speedup = reference_seconds / engine_seconds;
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"engine", support::Format("%.3f s", engine_seconds),
                  support::Format("%.1f", static_cast<double>(modules.size()) / engine_seconds),
                  "1.00x"});
  rows.push_back(
      {"reference", support::Format("%.3f s", reference_seconds),
       support::Format("%.1f", static_cast<double>(modules.size()) / reference_seconds),
       support::Format("%.2fx slower", speedup)});
  std::printf("%zu lowered modules (~%d LoC each); dataflow.* + ai.* extraction\n\n",
              modules.size(), target_lines);
  std::printf("%s\n",
              report::RenderTable({"mode", "extraction time", "modules/s", "relative"}, rows)
                  .c_str());
  std::printf("feature maps identical across modes: %s (must be yes; the engine only\n"
              "changes set representation and visit order, never fixpoints)\n\n",
              identical ? "yes" : "NO");
  json.AddStage("dataflow_features_engine", engine_seconds * 1000.0);
  json.AddStage("dataflow_features_reference", reference_seconds * 1000.0);
  json.SetDataflow(modules.size(), speedup, identical);
}

// Fault-tolerant sweep: collect under a mixed injected-fault load and show
// the failure taxonomy — every app row still lands, degraded stages are
// accounted per-stage, and the overhead vs a clean sweep stays small. The
// cache is off (fault verdicts are part of the cache key, so a faulted
// sweep would never reuse clean rows anyway, but cold rows keep the timing
// honest).
void PrintRobustness(bool smoke, JsonSink& json) {
  benchcommon::PrintHeader("Fault-tolerant sweep",
                           "collection under injected faults (degrade, never drop)");
  const auto ecosystem = smoke
                             ? benchcommon::MakeEcosystem(0.01, 24, 4)
                             : benchcommon::MakeEcosystem(benchcommon::EnvScale(0.01));
  const std::string faults = "parse:0.15,solver:0.1,dynamic:0.1";
  clair::TestbedOptions options;
  options.deep_analysis_max_files = 1;
  options.cache_features = false;
  const auto timed_sweep = [&](const clair::Testbed& testbed) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto records = testbed.Collect();
    const auto t1 = std::chrono::steady_clock::now();
    return std::make_pair(Seconds(t0, t1), records.size());
  };
  const clair::Testbed clean(ecosystem, options);
  const auto [clean_seconds, clean_apps] = timed_sweep(clean);
  double faulted_seconds = 0.0;
  size_t faulted_apps = 0;
  clair::RunReport report;
  {
    support::FaultInjector::ScopedConfig scoped(faults);
    const clair::Testbed faulted(ecosystem, options);
    std::tie(faulted_seconds, faulted_apps) = timed_sweep(faulted);
    report = faulted.run_report();
  }
  std::printf("CLAIR_FAULTS=\"%s\"; %zu/%zu apps collected (clean/faulted)\n\n",
              faults.c_str(), clean_apps, faulted_apps);
  std::printf("%s\n", report.ToString().c_str());
  std::printf("clean %.2f s vs faulted %.2f s (%.2fx); degraded stages fall back to\n"
              "neutral features + robust.* provenance, rows are never dropped.\n\n",
              clean_seconds, faulted_seconds, faulted_seconds / clean_seconds);
  json.AddStage("testbed_sweep_clean", clean_seconds * 1000.0);
  json.AddStage("testbed_sweep_faulted", faulted_seconds * 1000.0);
  json.SetRobustness(faults, report);
}

// Sharded fleet sweeps: the simulated-transport coordinator at 1..N
// workers, plus one seeded kill-schedule run. Every configuration's merged
// records AND merged function-row store must byte-equal the 1-process
// sweep — a mismatch fails the bench (exit 1), because a merge that loses
// or reorders rows silently would invalidate every fleet-scale dataset.
bool PrintShardScaling(bool smoke, JsonSink& json) {
  benchcommon::PrintHeader("Sharded fleet sweeps",
                           "supervised shard workers, crash-consistent merge");
  const auto ecosystem = smoke
                             ? benchcommon::MakeEcosystem(0.01, 24, 4)
                             : benchcommon::MakeEcosystem(benchcommon::EnvScale(0.01));
  const std::string work_dir = "BENCH_shard_work";
  ::mkdir(work_dir.c_str(), 0755);
  clair::TestbedOptions testbed_options;
  testbed_options.deep_analysis_max_files = 1;
  testbed_options.cache_features = false;

  // 1-process reference: the bytes every sharded run must reproduce.
  const clair::Testbed reference(ecosystem, testbed_options);
  const auto t0 = std::chrono::steady_clock::now();
  const auto expected_records = reference.Collect();
  const double reference_seconds = Seconds(t0, std::chrono::steady_clock::now());
  const std::string expected_bytes = clair::SaveRecords(expected_records);
  const std::string baseline_store_path = work_dir + "/baseline.clfs";
  std::string expected_store;
  {
    auto writer = ml::FeatureStoreWriter::Create(
        baseline_store_path, metrics::FunctionFeatureNames(),
        clair::FunctionClassNames(), ml::FeatureStoreOptions{});
    if (!writer.ok() || !reference.CollectFunctionRows(*writer.value()).ok() ||
        !writer.value()->Finish().ok()) {
      std::fprintf(stderr, "shard bench: baseline store failed\n");
      return false;
    }
    std::ifstream in(baseline_store_path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    expected_store = buffer.str();
  }

  const auto run_config = [&](int workers, const char* subdir) {
    clair::ShardSweepOptions options;
    options.num_shards = 8;
    options.num_workers = workers;
    options.work_dir = work_dir + "/" + subdir;
    ::mkdir(options.work_dir.c_str(), 0755);
    options.testbed = testbed_options;
    clair::ShardCoordinator coordinator(ecosystem, options);
    const auto start = std::chrono::steady_clock::now();
    auto result = coordinator.Run();
    const double seconds = Seconds(start, std::chrono::steady_clock::now());
    bool identical = false;
    clair::ShardSweepStats stats;
    if (result.ok()) {
      stats = result.value().stats;
      std::ifstream in(result.value().store_path, std::ios::binary);
      std::ostringstream buffer;
      buffer << in.rdbuf();
      identical = clair::SaveRecords(result.value().records) == expected_bytes &&
                  buffer.str() == expected_store;
      std::remove(result.value().store_path.c_str());
    }
    return std::make_tuple(seconds, identical, stats);
  };

  bool all_identical = true;
  const size_t apps = expected_records.size();
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"1-process", support::Format("%.2f s", reference_seconds),
                  support::Format("%.1f", static_cast<double>(apps) / reference_seconds),
                  "-", "reference"});
  for (const int workers : smoke ? std::vector<int>{1, 3} : std::vector<int>{1, 2, 4}) {
    const auto [seconds, identical, stats] =
        run_config(workers, support::Format("w%d", workers).c_str());
    all_identical = all_identical && identical;
    rows.push_back({support::Format("%d workers", workers),
                    support::Format("%.2f s", seconds),
                    support::Format("%.1f", static_cast<double>(apps) / seconds),
                    support::Format("%llu", static_cast<unsigned long long>(
                                                stats.generations_launched)),
                    identical ? "yes" : "NO"});
    json.AddShardSweep(workers, seconds, static_cast<double>(apps) / seconds,
                       identical);
  }
  // One seeded kill schedule on top: crashes, steals, torn checkpoint
  // tails — and still the same bytes.
  const std::string chaos_faults = "worker_crash:0.5,heartbeat_loss:0.2,seed:17";
  {
    support::FaultInjector::ScopedConfig scoped(chaos_faults);
    const auto [seconds, identical, stats] = run_config(3, "chaos");
    all_identical = all_identical && identical;
    rows.push_back({"3 workers + chaos", support::Format("%.2f s", seconds),
                    support::Format("%.1f", static_cast<double>(apps) / seconds),
                    support::Format("%llu", static_cast<unsigned long long>(
                                                stats.generations_launched)),
                    identical ? "yes" : "NO"});
    json.SetShardChaos(chaos_faults, stats, identical);
  }
  std::remove(baseline_store_path.c_str());
  std::printf("%zu apps, 8 shards, simulated transport; chaos row runs under\n"
              "CLAIR_FAULTS=\"%s\"\n\n",
              apps, chaos_faults.c_str());
  std::printf("%s\n",
              report::RenderTable({"configuration", "sweep + merge", "apps/sec",
                                   "generations", "bytes == 1-process"},
                                  rows)
                  .c_str());
  std::printf("merge determinism is load-bearing: records, function-row store and\n"
              "robustness fold must byte-equal the 1-process sweep (DESIGN.md s8).\n\n");
  return all_identical;
}

// Function-granular incremental re-extraction: cold full-app extraction vs
// a warm re-score after a one-function edit. The granular tiers (AST cache,
// per-file metric vectors, per-function dataflow/interval payloads,
// per-entry symexec results, per-file dynamic batteries) confine the warm
// cost to the changed set; the result must be bit-identical to from-scratch
// extraction of the edited tree (a mismatch fails the bench). Emits
// BENCH_incremental.json including the proc.* forest-importance ablation.
bool PrintIncremental(bool smoke) {
  benchcommon::PrintHeader("Incremental re-extraction",
                           "warm one-function-edit re-score vs cold full-app extraction");
  const auto ecosystem = smoke
                             ? benchcommon::MakeEcosystem(0.01, 24, 4)
                             : benchcommon::MakeEcosystem(benchcommon::EnvScale(0.02), 48, 8);

  // Subject: the selected app with the most MiniC files, so the cold sweep
  // covers a realistic multi-file battery.
  const corpus::AppSpec* subject = nullptr;
  size_t subject_minic = 0;
  for (const auto& name : ecosystem.database().AppsWithConvergingHistory(5.0)) {
    const corpus::AppSpec* spec = ecosystem.FindSpec(name);
    if (spec == nullptr) {
      continue;
    }
    size_t minic = 0;
    for (const auto& file : ecosystem.GenerateSources(*spec)) {
      if (file.language == metrics::Language::kMiniC) {
        ++minic;
      }
    }
    if (minic > subject_minic) {
      subject = spec;
      subject_minic = minic;
    }
  }
  if (subject == nullptr) {
    std::fprintf(stderr, "incremental bench: no MiniC app in the corpus\n");
    return false;
  }
  const auto files = ecosystem.GenerateSources(*subject);

  clair::TestbedOptions options;
  options.deep_analysis_max_files = smoke ? 4 : 16;
  const clair::Testbed testbed(ecosystem, options);

  const auto t_cold0 = std::chrono::steady_clock::now();
  const auto cold_features = testbed.ExtractFeatures(files);
  const double cold_seconds = Seconds(t_cold0, std::chrono::steady_clock::now());
  const auto cold_stats = testbed.incremental_stats();

  // The canonical developer event: one statement added to one function.
  auto edited = files;
  std::string edited_fn;
  bool edit_applied = false;
  for (auto& file : edited) {
    if (file.language != metrics::Language::kMiniC) {
      continue;
    }
    const auto index = clair::IndexFunctions(file);
    if (index.functions.empty()) {
      continue;
    }
    edited_fn = index.functions.front().name;
    edit_applied = corpus::ApplyFunctionEdit(file, edited_fn, "int hotfix_probe = 41;");
    break;
  }
  if (!edit_applied) {
    std::fprintf(stderr, "incremental bench: could not apply the function edit\n");
    return false;
  }
  const auto plan = clair::PlanFunctionDiff(files, edited);

  const auto t_warm0 = std::chrono::steady_clock::now();
  const auto warm_features = testbed.ExtractFeatures(edited);
  const double warm_seconds = Seconds(t_warm0, std::chrono::steady_clock::now());
  const auto warm_stats = testbed.incremental_stats();

  // An unchanged re-score is a pure L1 row hit.
  const auto t_noop0 = std::chrono::steady_clock::now();
  const auto replay_features = testbed.ExtractFeatures(edited);
  const double noop_seconds = Seconds(t_noop0, std::chrono::steady_clock::now());

  // Bit-identity: the warm result must equal from-scratch extraction of the
  // edited tree — both through fresh caches and through a scratch testbed
  // with the reuse tiers bypassed (cache_functions = false).
  const clair::Testbed scratch(ecosystem, options);
  clair::TestbedOptions cache_off_options = options;
  cache_off_options.cache_functions = false;
  const clair::Testbed cache_off(ecosystem, cache_off_options);
  const bool identical =
      warm_features.values() == scratch.ExtractFeatures(edited).values() &&
      warm_features.values() == cache_off.ExtractFeatures(edited).values() &&
      replay_features.values() == warm_features.values();

  const double speedup = cold_seconds / warm_seconds;
  const uint64_t fn_cold = cold_stats.fn_dataflow_computed;
  const uint64_t fn_warm = warm_stats.fn_dataflow_computed - cold_stats.fn_dataflow_computed;
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"cold full app", support::Format("%.2f ms", cold_seconds * 1000.0),
                  support::Format("%llu", static_cast<unsigned long long>(fn_cold)),
                  "1.00x"});
  rows.push_back({"warm 1-fn edit", support::Format("%.2f ms", warm_seconds * 1000.0),
                  support::Format("%llu", static_cast<unsigned long long>(fn_warm)),
                  support::Format("%.1fx", speedup)});
  rows.push_back({"warm unchanged", support::Format("%.2f ms", noop_seconds * 1000.0), "0",
                  support::Format("%.1fx", cold_seconds / noop_seconds)});
  std::printf("app %s: %zu MiniC files, deep budget %d files; edit touched %s\n"
              "(diff plan: %zu modified / %zu unchanged functions)\n\n",
              subject->name.c_str(), subject_minic, options.deep_analysis_max_files,
              edited_fn.c_str(), plan.modified, plan.unchanged);
  std::printf("%s\n",
              report::RenderTable({"re-score", "latency", "fn batteries run", "speedup"}, rows)
                  .c_str());
  std::printf("warm == from-scratch bytes: %s (must be yes); acceptance bar >= 20x\n\n",
              identical ? "yes" : "NO");

  // proc.* ablation: does the forest actually lean on the process features?
  // Function rows with and without the proc.* block, same forest config.
  const auto& names = metrics::FunctionFeatureNames();
  std::vector<size_t> proc_cols;
  for (size_t j = 0; j < names.size(); ++j) {
    if (names[j].rfind("proc.", 0) == 0) {
      proc_cols.push_back(j);
    }
  }
  ml::Dataset with_proc = ml::Dataset::ForClassification(
      {names.begin(), names.end()}, clair::FunctionClassNames());
  ml::Dataset without_proc = ml::Dataset::ForClassification(
      {names.begin(), names.end()}, clair::FunctionClassNames());
  for (const auto& name : ecosystem.database().AppsWithConvergingHistory(5.0)) {
    const corpus::AppSpec* spec = ecosystem.FindSpec(name);
    if (spec == nullptr) {
      continue;
    }
    for (const auto& row : clair::ExtractAppFunctionRows(ecosystem, *spec)) {
      with_proc.AddRow(row.values, row.target);
      auto ablated = row.values;
      for (const size_t j : proc_cols) {
        ablated[j] = 0.0;
      }
      without_proc.AddRow(ablated, row.target);
    }
  }
  ml::ForestOptions forest_options;
  forest_options.num_trees = smoke ? 24 : 48;
  forest_options.seed = 13;
  ml::RandomForestClassifier forest(forest_options);
  forest.Train(with_proc);
  double proc_importance = 0.0;
  double total_importance = 0.0;
  for (const auto& [feature, importance] : forest.FeatureImportance()) {
    total_importance += importance;
    if (feature.rfind("proc.", 0) == 0) {
      proc_importance += importance;
    }
  }
  const double proc_share = total_importance > 0.0 ? proc_importance / total_importance : 0.0;
  const auto forest_factory = [&forest_options] {
    return std::unique_ptr<ml::Classifier>(new ml::RandomForestClassifier(forest_options));
  };
  const ml::CvMetrics cv_with = ml::CrossValidate(with_proc, forest_factory, 5, 1);
  const ml::CvMetrics cv_without = ml::CrossValidate(without_proc, forest_factory, 5, 1);
  std::printf("proc.* ablation over %zu function rows (%zu proc columns):\n"
              "forest importance share %.3f; 5-fold CV accuracy %.3f with proc.*\n"
              "vs %.3f with the block zeroed (must be nonzero importance).\n\n",
              with_proc.num_rows(), proc_cols.size(), proc_share, cv_with.accuracy,
              cv_without.accuracy);

  benchcommon::JsonSink sink;
  sink.Add("bench", "incremental_rescore", true);
  sink.Add("app", subject->name, true);
  sink.AddInt("minic_files", subject_minic);
  sink.AddInt("deep_files", static_cast<uint64_t>(options.deep_analysis_max_files));
  sink.AddNumber("cold_ms", cold_seconds * 1000.0);
  sink.AddNumber("warm_edit_ms", warm_seconds * 1000.0);
  sink.AddNumber("warm_unchanged_ms", noop_seconds * 1000.0);
  sink.AddNumber("speedup_warm_vs_cold", speedup);
  sink.AddInt("changed_functions", plan.modified);
  sink.AddInt("fn_batteries_cold", fn_cold);
  sink.AddInt("fn_batteries_warm", fn_warm);
  sink.Add("identical_to_scratch", identical ? "true" : "false", false);
  sink.AddRaw("proc_ablation",
              support::Format("{\"rows\": %zu, \"proc_columns\": %zu, "
                              "\"importance_share\": %.4f, "
                              "\"cv_accuracy_with\": %.4f, "
                              "\"cv_accuracy_without\": %.4f}",
                              with_proc.num_rows(), proc_cols.size(), proc_share,
                              cv_with.accuracy, cv_without.accuracy));
  const char* json_path = "BENCH_incremental.json";
  if (sink.WriteTo(json_path)) {
    std::printf("wrote %s\n\n", json_path);
  } else {
    std::fprintf(stderr, "failed to write %s\n", json_path);
    return false;
  }
  return identical && proc_importance > 0.0;
}

void BM_EvaluateSubject(benchmark::State& state) {
  auto& fixture = Fixture::Get();
  const clair::SecurityEvaluator evaluator(fixture.model(), fixture.testbed());
  const auto files = MakeSubject(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const auto report = evaluator.Evaluate("subject", files);
    benchmark::DoNotOptimize(report.overall_risk);
  }
}
BENCHMARK(BM_EvaluateSubject)->Arg(100)->Arg(1000)->Arg(4000)->Unit(benchmark::kMillisecond);

void BM_PredictOnly(benchmark::State& state) {
  auto& fixture = Fixture::Get();
  const auto files = MakeSubject(500);
  const auto features = fixture.testbed().ExtractFeatures(files);
  const auto* bundle = fixture.model().ForHypothesis("cvss_gt7");
  for (auto _ : state) {
    benchmark::DoNotOptimize(bundle->PredictRisk(features));
  }
}
BENCHMARK(BM_PredictOnly)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  JsonSink json;
  PrintTrainingThroughput(smoke, json);
  PrintDataflow(smoke, json);
  PrintThreadScaling(smoke, json);
  PrintCacheEffect(smoke, json);
  PrintRobustness(smoke, json);
  const bool shards_identical = PrintShardScaling(smoke, json);
  const bool incremental_ok = PrintIncremental(smoke);
  if (!smoke) {
    PrintLatencies(json);
  }
  const char* json_path = "BENCH_pipeline.json";
  if (json.Write(json_path)) {
    std::printf("wrote %s\n", json_path);
  } else {
    std::fprintf(stderr, "failed to write %s\n", json_path);
    return 1;
  }
  if (!shards_identical) {
    std::fprintf(stderr, "sharded merge does not match the 1-process sweep\n");
    return 1;
  }
  if (!incremental_ok) {
    std::fprintf(stderr,
                 "incremental warm re-score does not match from-scratch extraction\n");
    return 1;
  }
  if (!smoke) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  return 0;
}
