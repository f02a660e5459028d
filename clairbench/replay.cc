#include "clairbench/replay.h"

#include <algorithm>
#include <chrono>

#include "src/clair/hypothesis.h"
#include "src/dataflow/analyses.h"
#include "src/dataflow/intervals.h"
#include "src/lang/interp.h"
#include "src/lang/ir.h"
#include "src/lang/parser.h"
#include "src/metrics/callgraph.h"
#include "src/ml/eval.h"
#include "src/support/rng.h"
#include "src/symexec/executor.h"

namespace clairbench {
namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Entry functions exactly as the testbed's symbolic-execution stage picks
// them: main() when present, otherwise the call-graph roots, capped.
std::vector<std::string> SymexecEntries(const lang::IrModule& module,
                                        const metrics::CallGraph& graph,
                                        int max_entries) {
  std::vector<std::string> entries;
  if (module.FindFunction("main") != nullptr) {
    entries.push_back("main");
  } else {
    entries = graph.Roots();
  }
  if (max_entries > 0 && entries.size() > static_cast<size_t>(max_entries)) {
    entries.resize(static_cast<size_t>(max_entries));
  }
  return entries;
}

// The dynamic-trace battery: call-graph roots run on seeded random inputs,
// with the testbed's trial count, input distribution and step cap.
void ReplayDynamic(const lang::IrModule& module, const metrics::CallGraph& graph,
                   int trials, uint64_t seed) {
  std::vector<std::string> entries;
  if (module.FindFunction("main") != nullptr) {
    entries.push_back("main");
  } else {
    entries = graph.Roots();
    if (entries.size() > 8) {
      entries.resize(8);
    }
  }
  support::Rng rng(seed);
  lang::InterpOptions interp_options;
  interp_options.max_steps = 1 << 14;
  for (const auto& entry : entries) {
    for (int t = 0; t < trials; ++t) {
      std::vector<int64_t> inputs;
      for (int i = 0; i < 16; ++i) {
        inputs.push_back(rng.NextBool(0.7)
                             ? static_cast<int64_t>(rng.NextBelow(32))
                             : static_cast<int64_t>(rng.NextBelow(1 << 12)) - 2048);
      }
      lang::Execute(module, entry, {0, 1, 2, 3}, std::move(inputs), interp_options);
    }
  }
}

}  // namespace

void SymexecTally::Add(const SymexecTally& other) {
  entries += other.entries;
  paths += other.paths;
  solver_queries += other.solver_queries;
  range_pruned += other.range_pruned;
  sat_conflicts += other.sat_conflicts;
  budget_hit_entries += other.budget_hit_entries;
  if (other.entry_max_s > entry_max_s) {
    entry_max_s = other.entry_max_s;
    entry_max_id = other.entry_max_id;
  }
}

SymexecTally ReplayDeepFile(Tracer& tracer, const std::string& id,
                            const metrics::SourceFile& file, int deep_index,
                            const clair::TestbedOptions& options,
                            const std::set<std::string>* touched) {
  SymexecTally tally;
  auto file_span = tracer.Open("file", id);
  support::Result<lang::TranslationUnit> unit = [&] {
    auto span = tracer.Open("lang.parse", id);
    return lang::Parse(file.text);
  }();
  if (!unit.ok()) {
    return tally;
  }
  support::Result<lang::IrModule> lowered = [&] {
    auto span = tracer.Open("lang.lower", id);
    return lang::LowerToIr(unit.value());
  }();
  if (!lowered.ok()) {
    return tally;
  }
  const lang::IrModule& module = lowered.value();
  const metrics::CallGraph graph(module);
  if (options.with_dataflow) {
    {
      auto span = tracer.Open("dataflow.features", id);
      dataflow::DataflowFeatures(module);
    }
    auto span = tracer.Open("dataflow.intervals", id);
    dataflow::IntervalFeatures(module);
  }
  if (options.with_symexec) {
    const std::vector<std::string> entries =
        SymexecEntries(module, graph, options.symexec.max_entries);
    symx::SymExecOptions base = options.symexec;
    base.watchdog_steps = options.stage_step_budget;
    for (size_t i = 0; i < entries.size(); ++i) {
      if (touched != nullptr) {
        const std::set<std::string> closure = graph.ReachableFrom(entries[i]);
        if (std::none_of(touched->begin(), touched->end(),
                         [&](const std::string& fn) { return closure.count(fn) > 0; })) {
          continue;
        }
      }
      symx::SymExecOptions entry_options = base;
      entry_options.rng_seed =
          support::Rng::TaskSeed(base.rng_seed, static_cast<uint64_t>(i));
      const std::string entry_id = id + "/" + entries[i];
      const auto start = Clock::now();
      symx::SymExecResult result;
      {
        auto span = tracer.Open("symexec.explore", entry_id);
        result = symx::Explore(module, entries[i], entry_options);
      }
      const double seconds = Since(start);
      ++tally.entries;
      tally.paths += result.paths_explored;
      tally.solver_queries += result.solver_queries;
      tally.range_pruned += result.range_pruned;
      tally.sat_conflicts += result.sat_conflicts;
      if (result.solver_queries >= entry_options.max_solver_queries) {
        ++tally.budget_hit_entries;
      }
      if (seconds > tally.entry_max_s) {
        tally.entry_max_s = seconds;
        tally.entry_max_id = entry_id;
      }
    }
  }
  if (options.with_dynamic) {
    auto span = tracer.Open("lang.interp", id);
    ReplayDynamic(module, graph, options.dynamic_trials,
                  support::Rng::TaskSeed(options.dynamic_seed,
                                         static_cast<uint64_t>(deep_index)));
  }
  return tally;
}

SymexecTally ReplayApp(Tracer& tracer, const corpus::EcosystemGenerator& ecosystem,
                       const corpus::AppSpec& spec,
                       const clair::TestbedOptions& options) {
  auto app_span = tracer.Open("app", spec.name);
  const std::vector<metrics::SourceFile> files = [&] {
    auto span = tracer.Open("corpus.generate", spec.name);
    return ecosystem.GenerateSources(spec);
  }();
  {
    auto span = tracer.Open("metrics.app_features", spec.name);
    metrics::ExtractAppFeatures(files);
  }
  SymexecTally tally;
  int deep = 0;
  for (const auto& file : files) {
    if (deep >= options.deep_analysis_max_files) {
      break;
    }
    if (file.language != metrics::Language::kMiniC) {
      continue;
    }
    tally.Add(ReplayDeepFile(tracer, file.path, file, deep, options, nullptr));
    ++deep;
  }
  auto span = tracer.Open("cvedb.join", spec.name);
  ecosystem.database().Summarize(spec.name);
  return tally;
}

MlReplay ReplayTraining(const clair::TrainingPipeline& pipeline,
                        const std::vector<clair::HypothesisReport>& reports,
                        const clair::TrainedModel& model,
                        const std::vector<clair::AppRecord>& records) {
  MlReplay replay;
  const clair::PipelineOptions options;  // The driver trains with defaults.
  const auto& learners = clair::StandardLearners();
  for (const auto& report : reports) {
    const clair::Hypothesis* hypothesis = clair::FindHypothesis(report.hypothesis_id);
    if (hypothesis == nullptr) {
      ++replay.checks;
      ++replay.mismatches;
      continue;
    }
    ml::Dataset data = pipeline.BuildDataset(*hypothesis);
    pipeline.ApplyTransforms(data, nullptr);
    for (size_t j = 0; j < learners.size(); ++j) {
      const auto start = Clock::now();
      const ml::CvMetrics metrics = ml::CrossValidate(
          data, learners[j].factory, options.cv_folds, options.seed);
      replay.cv_s[learners[j].name] += Since(start);
      ++replay.checks;
      if (j >= report.per_learner.size() ||
          report.per_learner[j].metrics.accuracy != metrics.accuracy) {
        ++replay.mismatches;
      }
    }
  }

  std::vector<const metrics::FeatureVector*> rows;
  rows.reserve(records.size());
  for (const auto& record : records) {
    rows.push_back(&record.features);
  }
  // Several passes so the rate rests on enough work to time.
  constexpr int kPasses = 20;
  uint64_t scored = 0;
  const auto start = Clock::now();
  for (int pass = 0; pass < kPasses; ++pass) {
    for (const auto& bundle : model.models()) {
      scored += bundle.PredictRiskBatch(rows).size();
    }
  }
  replay.predict_rows_per_s = static_cast<double>(scored) / std::max(Since(start), 1e-9);
  return replay;
}

}  // namespace clairbench
