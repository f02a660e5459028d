// clairbench: the repo benchmark. Drives the pipeline from outside, through
// public entry points only, and prints one JSON result line (see README.md).
//
//   clairbench --workload corpus_cold|edit_rescore --seed N --seconds S
//              --trace 0|1 [--short] [--perturb-reference] [--trace-out PATH]
//
// Every run reports every end-to-end metric, so every run goes through the
// system's whole life cycle: cold corpus sweeps, training, a stream of
// one-function edits re-scored by the evaluator, and open-loop serving
// through the scheduler. The measurement window (--seconds) is a sequence
// of rounds, each one cold sweep (a fresh testbed), one training and one
// block of edits, so every timed metric samples the whole run rather than
// one stretch of it; the workload decides where the run starts from and
// where the edits re-score:
//   corpus_cold   set-up generates the corpus; each round's edits re-score
//                 on the round's freshly swept testbed. Every sweep's rows
//                 are checked against a 1-worker Collect.
//   edit_rescore  set-up also primes a testbed with a cold sweep and trains;
//                 every round's edits re-score on that primed testbed.
// Edits are checked by sampling them against from-scratch extraction on a
// cache-off testbed, and every served result against synchronous extraction
// + per-hypothesis prediction. --trace 1 replays the workload's own inputs
// layer by layer (replay.h) and reports per-layer metrics instead.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "clairbench/replay.h"
#include "clairbench/trace.h"
#include "src/clair/evaluator.h"
#include "src/clair/feature_cache.h"
#include "src/clair/hypothesis.h"
#include "src/clair/incremental.h"
#include "src/clair/pipeline.h"
#include "src/clair/scheduler.h"
#include "src/clair/testbed.h"
#include "src/corpus/codegen.h"
#include "src/corpus/ecosystem.h"
#include "src/corpus/history.h"
#include "src/support/rng.h"
#include "src/support/strings.h"
#include "src/support/thread_pool.h"

#ifndef CLAIRBENCH_BUILD_TYPE
#define CLAIRBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using Clock = std::chrono::steady_clock;

// The ROADMAP corpus. It stays fixed for every --seed: on this corpus shape
// a cold sweep's cost depends on the few heaviest symbolic explorations, and
// over corpus seeds 1..5 the 4-worker sweep took 1.3 s to 15 s. The seed
// drives the sampled inputs instead: the edit stream and the order, repeats
// and kinds of the serving requests.
constexpr uint64_t kCorpusSeed = 20170508;
constexpr double kSizeScale = 0.01;
constexpr int kDeepFiles = 1;

constexpr uint64_t kEditSalt = 0xed17ed17ULL;
constexpr uint64_t kServeSalt = 0x5e7e5e7eULL;
constexpr uint64_t kSubjectSalt = 0x5b1ec7ULL;

// Phase sizes.
constexpr int kSetups = 3;              // Set-ups per run; setup_s is their median.
constexpr int kCorpusSetups = 15;       // corpus_cold's set-up takes 0.1 s.
constexpr int kMinRounds = 2;           // Rounds per window, at least; trace runs
                                        // run exactly this many.
constexpr size_t kRoundEdits = 350;     // Edits per round.
constexpr size_t kMaxVerifiedEdits = 16;
constexpr double kVerifyShare = 1.0 / 16.0;

// Serving: fixed-rate open loop, one rung per rate, climbing until a rung
// misses the latency limit or leaves a backlog. Extraction time of these
// subjects is heavy-tailed (over 900 of them: mean 80 ms, a dozen over
// 1 s, the worst 12.5 s), and one slow extraction holds its whole wave, so
// the limit sits above the 1.1 s exploration the nominal rung always meets.
// The ladder tops out where a run still fits the time budget; a top rung
// that passes caps serve_goodput_rps. The nominal rung's latencies go to
// the per-layer clair.sched.p50_ms / p95_ms, from kTraceNominalPasses
// passes in trace runs: the wave that holds the slow extraction and the
// drain after it make its p95 swing by half between passes over identical
// requests, so it is no end-to-end metric.
constexpr double kNominalRps = 40.0;
const double kLadderRps[] = {kNominalRps, 80.0, 160.0};
constexpr size_t kWindowRequests = 40;
constexpr size_t kNominalWindows = 5;
constexpr int kTraceNominalPasses = 3;
constexpr size_t kRungWindows = 2;      // Every higher rung.
constexpr double kLatencyLimitMs = 2000.0;
constexpr size_t kFreshPerWindow = 30;  // The other 10 repeat one of them.
constexpr double kExtractOnlyShare = 1.0 / 8.0;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Linear interpolation between closest ranks.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

int Nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += support::Format("\\u%04x", c);
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  return std::isfinite(value) ? support::Format("%.17g", value) : "null";
}

struct Args {
  std::string workload;
  uint64_t seed = kCorpusSeed;
  double seconds = 10.0;
  bool trace = false;
  bool short_mode = false;
  bool perturb_reference = false;
  std::string trace_out;
};

// Operations attempted and failed, with the first few failures described.
struct Checks {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;

  void Op(bool ok, const std::string& what) { Count(1, ok ? 0 : 1, what); }

  void Count(uint64_t attempted_ops, uint64_t failed_ops, const std::string& what) {
    attempted += attempted_ops;
    failed += failed_ops;
    if (failed_ops > 0 && failures.size() < 8) {
      failures.push_back(what);
    }
  }
};

// Wall time of each phase of a run, in order.
struct Phases {
  Clock::time_point last = Clock::now();
  std::string json;

  void Mark(const char* name) {
    json += support::Format("%s\"%s\": %.3f", json.empty() ? "" : ", ", name, Since(last));
    last = Clock::now();
  }
};

// Everything a run reports.
struct Report {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::pair<std::string, std::string>> details;  // Raw JSON values.
  Checks checks;
  Phases phases;

  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void Detail(const std::string& key, const std::string& json) {
    details.push_back({key, json});
  }
};

// ---------------------------------------------------------------- corpus --

struct Corpus {
  std::unique_ptr<corpus::EcosystemGenerator> ecosystem;
  std::vector<const corpus::AppSpec*> apps;  // Selected apps, Collect order.
  std::vector<std::vector<metrics::SourceFile>> sources;  // HEAD, per app.
};

corpus::CorpusOptions CorpusShape(bool short_mode) {
  corpus::CorpusOptions options;
  options.mature_apps = short_mode ? 24 : 164;
  options.immature_apps = short_mode ? 4 : 24;
  options.size_scale = kSizeScale;
  options.seed = kCorpusSeed;
  return options;
}

// Generates the ecosystem and materializes every selected app's sources.
std::unique_ptr<Corpus> MakeCorpus(bool short_mode) {
  auto made = std::make_unique<Corpus>();
  made->ecosystem = std::make_unique<corpus::EcosystemGenerator>(CorpusShape(short_mode));
  for (const auto& name : made->ecosystem->database().AppsWithConvergingHistory(5.0)) {
    if (const corpus::AppSpec* spec = made->ecosystem->FindSpec(name)) {
      made->apps.push_back(spec);
      made->sources.push_back(made->ecosystem->GenerateSources(*spec));
    }
  }
  return made;
}

clair::TestbedOptions ExtractionOptions(int threads) {
  clair::TestbedOptions options;
  options.deep_analysis_max_files = kDeepFiles;
  options.threads = threads;
  return options;
}

// The independent path the checks compare against: every cache tier off,
// so extraction takes the module-level path from scratch.
clair::TestbedOptions CacheOffOptions() {
  clair::TestbedOptions options = ExtractionOptions(0);
  options.cache_features = false;
  options.cache_functions = false;
  return options;
}

// Reads (hits) and fills (misses) of each cache tier, for the details line.
struct CacheMix {
  clair::FeatureCacheStats row;   // App-level feature rows.
  clair::FeatureCacheStats file;  // Per-file shallow metric vectors.
  clair::FeatureCacheStats fn;    // Per-function / per-entry deep payloads.
  clair::IncrementalStats ast;    // AST cache: files_parsed vs parse_reused.
};

CacheMix Snapshot(const clair::Testbed& testbed) {
  return {testbed.cache_stats(), testbed.file_cache_stats(), testbed.function_cache_stats(),
          testbed.incremental_stats()};
}

// Cache traffic summed over intervals of one or more testbeds.
struct CacheTraffic {
  uint64_t reads[4] = {0, 0, 0, 0};  // Row, file, fn, AST.
  uint64_t fills[4] = {0, 0, 0, 0};
  uint64_t coalesced = 0;

  void Add(const CacheMix& before, const CacheMix& after) {
    const clair::FeatureCacheStats* a[] = {&before.row, &before.file, &before.fn};
    const clair::FeatureCacheStats* b[] = {&after.row, &after.file, &after.fn};
    for (int t = 0; t < 3; ++t) {
      reads[t] += b[t]->hits - a[t]->hits;
      fills[t] += b[t]->misses - a[t]->misses;
    }
    reads[3] += after.ast.parse_reused - before.ast.parse_reused;
    fills[3] += after.ast.files_parsed - before.ast.files_parsed;
    coalesced += after.row.coalesced_fills - before.row.coalesced_fills;
  }

  std::string Json() const {
    const char* const tiers[] = {"row", "file", "fn", "ast"};
    std::string out = "{";
    for (int t = 0; t < 4; ++t) {
      out += support::Format("\"%s\": {\"reads\": %llu, \"fills\": %llu}, ", tiers[t],
                             static_cast<unsigned long long>(reads[t]),
                             static_cast<unsigned long long>(fills[t]));
    }
    return out + support::Format("\"coalesced\": %llu}",
                                 static_cast<unsigned long long>(coalesced));
  }
};

bool SameRow(const clair::AppRecord& a, const clair::AppRecord& b) {
  return a.name == b.name && a.source_digest == b.source_digest &&
         a.features.values() == b.features.values() &&
         a.labels.total == b.labels.total && a.labels.by_cwe == b.labels.by_cwe &&
         a.labels.high_or_worse == b.labels.high_or_worse &&
         a.labels.network_vector == b.labels.network_vector &&
         a.labels.max_score == b.labels.max_score &&
         a.labels.mean_score == b.labels.mean_score;
}

// Compares a sweep's rows with reference rows and with the sources set-up
// generated (each row's digest must name exactly those sources).
void CheckRows(const Corpus& corpus, const std::vector<clair::AppRecord>& rows,
               const std::vector<clair::AppRecord>& reference, const char* what,
               Checks& checks) {
  checks.Op(rows.size() == corpus.apps.size() && rows.size() == reference.size(),
            support::Format("%s: %zu rows, expected %zu", what, rows.size(),
                            corpus.apps.size()));
  const size_t n = std::min({rows.size(), reference.size(), corpus.apps.size()});
  for (size_t i = 0; i < n; ++i) {
    const bool ok = SameRow(rows[i], reference[i]) &&
                    rows[i].source_digest == clair::HashSourceFiles(corpus.sources[i], 0);
    checks.Op(ok, support::Format("%s: row %s differs from the reference",
                                  what, rows[i].name.c_str()));
  }
}

struct Sweep {
  std::unique_ptr<clair::Testbed> testbed;
  std::vector<clair::AppRecord> records;
  double seconds = 0.0;
};

Sweep ColdSweep(const Corpus& corpus, int threads) {
  Sweep sweep;
  sweep.testbed =
      std::make_unique<clair::Testbed>(*corpus.ecosystem, ExtractionOptions(threads));
  const auto start = Clock::now();
  sweep.records = sweep.testbed->Collect();
  sweep.seconds = Since(start);
  return sweep;
}

// --------------------------------------------------------------- training --

struct Trained {
  std::unique_ptr<clair::TrainingPipeline> pipeline;
  std::vector<clair::HypothesisReport> reports;
  clair::TrainedModel model;
  double seconds = 0.0;
  double cv_accuracy = 0.0;  // Mean over hypotheses of the best learner's.
};

Trained Train(const std::vector<clair::AppRecord>& records) {
  Trained trained;
  const auto start = Clock::now();
  trained.pipeline = std::make_unique<clair::TrainingPipeline>(records);
  trained.reports = trained.pipeline->EvaluateAll();
  trained.model = trained.pipeline->TrainFinal(trained.reports);
  trained.seconds = Since(start);
  double sum = 0.0;
  for (const auto& report : trained.reports) {
    sum += report.best.accuracy;
  }
  trained.cv_accuracy =
      trained.reports.empty() ? 0.0 : sum / static_cast<double>(trained.reports.size());
  return trained;
}

// Every training of a run must select and score alike; `first` holds the
// run's first training's reports.
void CheckTraining(const std::vector<clair::HypothesisReport>& first, const Trained& trained,
                   Checks& checks) {
  bool same = trained.reports.size() == first.size();
  for (size_t h = 0; same && h < trained.reports.size(); ++h) {
    same = trained.reports[h].best_learner == first[h].best_learner &&
           trained.reports[h].best.accuracy == first[h].best.accuracy;
  }
  checks.Op(same && trained.cv_accuracy > 0.0 && trained.cv_accuracy <= 1.0,
            "training: selected or scored differently from the run's first, or cv "
            "accuracy outside (0, 1]");
}

// ------------------------------------------------------------ edit stream --

struct EditTarget {
  size_t file = 0;
  bool deep = false;  // The file the deep-analysis budget covers.
  std::vector<std::string> functions;
};

// Editable MiniC files (those with functions), per app; apps with none are
// left out.
struct EditTargets {
  std::vector<size_t> apps;
  std::vector<std::vector<EditTarget>> files;  // Parallel to `apps`.
};

EditTargets FindEditTargets(const Corpus& corpus) {
  EditTargets targets;
  for (size_t a = 0; a < corpus.apps.size(); ++a) {
    std::vector<EditTarget> files;
    int minic_seen = 0;
    for (size_t f = 0; f < corpus.sources[a].size(); ++f) {
      const auto& file = corpus.sources[a][f];
      if (file.language != metrics::Language::kMiniC) {
        continue;
      }
      const bool deep = minic_seen++ < kDeepFiles;
      const clair::FileFunctionIndex index = clair::IndexFunctions(file);
      if (index.functions.empty()) {
        continue;
      }
      EditTarget target{f, deep, {}};
      for (const auto& fn : index.functions) {
        target.functions.push_back(fn.name);
      }
      files.push_back(std::move(target));
    }
    if (!files.empty()) {
      targets.apps.push_back(a);
      targets.files.push_back(std::move(files));
    }
  }
  return targets;
}

struct Edit {
  size_t app = 0;
  size_t file = 0;
  bool deep = false;
  bool applied = false;
  std::string function;
  std::vector<metrics::SourceFile> files;  // HEAD plus this one edit.
};

// Edit k of the seeded stream: one statement added to one function of one
// MiniC file, applied to HEAD. One number picks the target, u_k = frac(o +
// k / phi) with a seeded offset o: u_k * apps picks the app, the remainder
// scaled to the app's editable files picks the file, and the next remainder
// the function. Every prefix of that sequence spreads evenly over [0, 1),
// so every run edits each app about equally often and its deep file (which
// re-runs symbolic execution) in the same share, whatever the seed. Edit
// cost hangs on both, and independent picks let the share of edits in a
// few costly closures swing rescore_p95_ms from seed to seed.
Edit MakeEdit(const Corpus& corpus, const EditTargets& targets, uint64_t seed, size_t k) {
  constexpr double kInversePhi = 0.6180339887498949;
  double u = std::fmod(support::Rng::ForTask(seed ^ kEditSalt, 0).NextDouble() +
                           static_cast<double>(k) * kInversePhi,
                       1.0);
  const auto pick = [&u](size_t n) {
    const double scaled = u * static_cast<double>(n);
    const size_t i = std::min(n - 1, static_cast<size_t>(scaled));
    u = scaled - static_cast<double>(i);
    return i;
  };
  const size_t slot = pick(targets.apps.size());
  const EditTarget& target = targets.files[slot][pick(targets.files[slot].size())];
  Edit edit;
  edit.app = targets.apps[slot];
  edit.file = target.file;
  edit.deep = target.deep;
  edit.function = target.functions[pick(target.functions.size())];
  support::Rng rng = support::Rng::ForTask(seed ^ kEditSalt ^ 0xf11e, k);
  edit.files = corpus.sources[edit.app];
  const std::string statement =
      support::Format("int clairbench_edit_%zu = %llu;", k,
                      static_cast<unsigned long long>(rng.NextBelow(1000)));
  edit.applied = corpus::ApplyFunctionEdit(edit.files[target.file], edit.function, statement);
  return edit;
}

struct VerifiedEdit {
  size_t k = 0;
  double latency_ms = 0.0;
  clair::SecurityReport warm;
};

// The edit stream of a run, accumulated over its rounds.
struct EditPhase {
  size_t next = 0;  // Index of the next edit of the stream.
  std::vector<double> latencies_ms;
  size_t unapplied = 0;  // Edits ApplyFunctionEdit refused.
  std::vector<VerifiedEdit> verified;
  uint64_t reused = 0;    // Function payloads and symexec entries reused ...
  uint64_t computed = 0;  // ... and computed, from IncrementalStats deltas.
  uint64_t symexec_entries_computed = 0;
  CacheTraffic traffic;
  std::vector<double> diff_plan_ms;  // Trace runs only.
};

// Closed loop, one client: re-scores the stream's next `count` edits.
void RunEdits(const Corpus& corpus, const EditTargets& targets, const clair::Testbed& testbed,
              const clair::TrainedModel& model, uint64_t seed, size_t count, bool trace,
              EditPhase& phase) {
  const clair::SecurityEvaluator evaluator(model, testbed);
  const clair::IncrementalStats a = testbed.incremental_stats();
  const CacheMix cache_before = Snapshot(testbed);
  for (const size_t end = phase.next + count; phase.next < end; ++phase.next) {
    const size_t k = phase.next;
    const Edit edit = MakeEdit(corpus, targets, seed, k);
    phase.unapplied += edit.applied ? 0 : 1;
    const auto start = Clock::now();
    clair::SecurityReport report =
        evaluator.Evaluate(corpus.apps[edit.app]->name, edit.files);
    const double ms = Since(start) * 1e3;
    phase.latencies_ms.push_back(ms);
    support::Rng pick = support::Rng::ForTask(seed ^ kEditSalt ^ 0x7e57, k);
    if ((k == 0 || pick.NextBool(kVerifyShare)) &&
        phase.verified.size() < kMaxVerifiedEdits) {
      phase.verified.push_back({k, ms, std::move(report)});
    }
    if (trace) {
      const auto plan_start = Clock::now();
      clair::PlanFunctionDiff(corpus.sources[edit.app], edit.files);
      phase.diff_plan_ms.push_back(Since(plan_start) * 1e3);
    }
  }
  const clair::IncrementalStats b = testbed.incremental_stats();
  phase.reused += (b.fn_dataflow_reused - a.fn_dataflow_reused) +
                  (b.fn_intervals_reused - a.fn_intervals_reused) +
                  (b.symexec_entries_reused - a.symexec_entries_reused);
  phase.computed += (b.fn_dataflow_computed - a.fn_dataflow_computed) +
                    (b.fn_intervals_computed - a.fn_intervals_computed) +
                    (b.symexec_entries_computed - a.symexec_entries_computed);
  phase.symexec_entries_computed += b.symexec_entries_computed - a.symexec_entries_computed;
  phase.traffic.Add(cache_before, Snapshot(testbed));
}

bool SameReport(const clair::SecurityReport& a, const clair::SecurityReport& b) {
  if (a.features.values() != b.features.values() || a.overall_risk != b.overall_risk ||
      a.predictions.size() != b.predictions.size()) {
    return false;
  }
  for (size_t i = 0; i < a.predictions.size(); ++i) {
    if (a.predictions[i].hypothesis_id != b.predictions[i].hypothesis_id ||
        a.predictions[i].risk != b.predictions[i].risk) {
      return false;
    }
  }
  return true;
}

// Re-extracts the sampled edits from scratch on a cache-off testbed (the
// module-level extraction path) and compares whole reports.
void VerifyEdits(const Corpus& corpus, const EditTargets& targets,
                 const clair::TrainedModel& model, uint64_t seed,
                 const EditPhase& phase, bool perturb, Checks& checks) {
  const clair::Testbed scratch(*corpus.ecosystem, CacheOffOptions());
  const clair::SecurityEvaluator evaluator(model, scratch);
  for (size_t v = 0; v < phase.verified.size(); ++v) {
    const VerifiedEdit& verified = phase.verified[v];
    const Edit edit = MakeEdit(corpus, targets, seed, verified.k);
    clair::SecurityReport reference =
        evaluator.Evaluate(corpus.apps[edit.app]->name, edit.files);
    if (perturb && v == 0) {
      reference.overall_risk += 1.0;
    }
    checks.Op(SameReport(verified.warm, reference),
              support::Format("edit %zu (%s/%s): warm report differs from scratch",
                              verified.k, corpus.apps[edit.app]->name.c_str(),
                              edit.function.c_str()));
  }
  // Every edit re-scored is an operation; only the sample is compared.
  checks.Count(phase.latencies_ms.size() - phase.verified.size(), phase.unapplied,
               "edit stream: an edit could not be applied");
}

// -------------------------------------------------------------- serving --

struct Subject {
  uint64_t seed = 0;
  std::vector<metrics::SourceFile> files;
};

// A fresh single-file subject of 30 to 60 lines.
std::vector<metrics::SourceFile> SubjectFiles(uint64_t subject_seed) {
  support::Rng rng(subject_seed);
  corpus::AppStyle style;
  style.complexity = rng.NextDouble();
  style.unsafety = rng.NextDouble();
  style.taintiness = rng.NextDouble();
  const int lines = 30 + static_cast<int>(rng.NextBelow(31));
  metrics::SourceFile file;
  file.path = support::Format("subject_%016llx.c",
                              static_cast<unsigned long long>(subject_seed));
  file.language = metrics::Language::kMiniC;
  file.text = corpus::GenerateMiniCFile(rng, style, lines);
  return {file};
}

// Serving inputs, one window of kWindowRequests requests at a time. The
// subjects come from a pool pinned to the corpus seed, like the corpus
// itself, and window g serves pool subjects [g*F, (g+1)*F) (F =
// kFreshPerWindow) in pool order. So every run meets the same rare
// multi-second explorations at the same point of the same rung: one of them
// decides the nominal rung's p95, and a seed that moved it would move the
// p95 with it. The seed picks which subjects are requested again and where
// the repeats go, and draws extract-only probes and priorities.
// The pinned subject pool, generated on first use.
class SubjectPool {
 public:
  const Subject& At(size_t index) {
    while (subjects_.size() <= index) {
      Subject fresh;
      fresh.seed = support::Rng::TaskSeed(kCorpusSeed ^ kSubjectSalt, subjects_.size());
      fresh.files = SubjectFiles(fresh.seed);
      subjects_.push_back(std::move(fresh));
    }
    return subjects_[index];
  }

  const std::vector<Subject>& subjects() const { return subjects_; }

 private:
  std::vector<Subject> subjects_;
};

class ServeStream {
 public:
  // `pass` tells apart repeated passes over the same windows.
  ServeStream(SubjectPool& pool, uint64_t seed, uint64_t pass)
      : pool_(pool), seed_(support::Rng::TaskSeed(seed ^ kServeSalt, pass)) {}

  std::vector<std::pair<size_t, clair::ScoreRequest>> NextWindow() {
    support::Rng rng = support::Rng::ForTask(seed_, windows_);
    const size_t first = windows_++ * kFreshPerWindow;
    std::vector<size_t> order;
    for (size_t f = 0; f < kFreshPerWindow; ++f) {
      order.push_back(first + f);
    }
    // Each repeat goes right after a seeded position and names a subject
    // already requested by then.
    while (order.size() < kWindowRequests) {
      const size_t at = 1 + rng.NextBelow(order.size());
      order.insert(order.begin() + static_cast<std::ptrdiff_t>(at), order[rng.NextBelow(at)]);
    }
    std::vector<std::pair<size_t, clair::ScoreRequest>> window;
    for (const size_t subject : order) {
      clair::ScoreRequest request;
      request.subject = support::Format("subject_%zu", subject);
      request.files = pool_.At(subject).files;
      request.extract_only = rng.NextBool(kExtractOnlyShare);
      request.priority = static_cast<int>(rng.NextBelow(3));
      window.push_back({subject, std::move(request)});
    }
    return window;
  }

 private:
  SubjectPool& pool_;
  uint64_t seed_;
  size_t windows_ = 0;
};

struct Served {
  size_t subject = 0;
  bool extract_only = false;
  clair::ScoreResult result;
};

struct Rung {
  double rate = 0.0;
  size_t requests = 0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double goodput_rps = 0.0;       // Requests within the limit per second sent.
  size_t backlog = 0;             // Median unresolved count at window ends.
  double max_late_ms = 0.0;       // How late the generator sent, at worst ...
  double mean_late_ms = 0.0;      // ... and on average.
  bool pass = false;
  clair::SchedulerStats stats;
};

struct ServePhase {
  std::vector<Rung> rungs;  // The nominal passes, then the rungs above.
  std::vector<Served> served;
  double p50_ms = 0.0;      // Nominal rate, over every pass's requests.
  double p95_ms = 0.0;
  double goodput_rps = 0.0;
  CacheTraffic traffic;  // Of the pass the ladder climbs from.
};

// One rung: `windows` consecutive windows of kWindowRequests requests, sent
// at `rate` by this thread and timed from when each was due. The rung
// passes when its p95 meets the limit and the backlog sampled at window
// ends stays within what the limit lets drain.
Rung RunRung(const clair::Testbed& testbed, const clair::TrainedModel& model,
             ServeStream& stream, double rate, size_t windows, int threads,
             std::vector<Served>& served, std::vector<double>& all_latencies_ms) {
  Rung rung;
  rung.rate = rate;
  const size_t count = windows * kWindowRequests;
  std::vector<std::pair<size_t, clair::ScoreRequest>> requests;
  requests.reserve(count);
  for (size_t w = 0; w < windows; ++w) {
    for (auto& request : stream.NextWindow()) {
      requests.push_back(std::move(request));
    }
  }
  clair::SchedulerOptions options;
  options.threads = threads;
  clair::Scheduler scheduler(testbed, model, options);
  std::vector<uint64_t> ids;
  std::vector<Clock::time_point> due;
  std::vector<double> backlogs;
  ids.reserve(count);
  due.reserve(count);
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  const auto period = std::chrono::duration<double>(1.0 / rate);
  for (size_t i = 0; i < count; ++i) {
    const auto when =
        start + std::chrono::duration_cast<Clock::duration>(period * static_cast<double>(i));
    std::this_thread::sleep_until(when);
    const double late_ms = Since(when) * 1e3;
    rung.max_late_ms = std::max(rung.max_late_ms, late_ms);
    rung.mean_late_ms += late_ms / static_cast<double>(count);
    due.push_back(when);
    ids.push_back(scheduler.Submit(requests[i].second));
    if ((i + 1) % kWindowRequests == 0) {
      const clair::SchedulerStats now = scheduler.stats();
      backlogs.push_back(
          static_cast<double>(now.submitted - now.completed - now.failed - now.cancelled));
    }
  }
  const double sent_s = Since(start) + period.count();
  scheduler.Drain();
  std::vector<double> latencies;
  size_t good = 0;
  for (size_t i = 0; i < count; ++i) {
    Served one{requests[i].first, requests[i].second.extract_only, scheduler.Wait(ids[i])};
    const double ms =
        std::chrono::duration<double, std::milli>(one.result.resolved_at - due[i]).count();
    latencies.push_back(ms);
    good += one.result.state == clair::RequestState::kDone && ms <= kLatencyLimitMs ? 1 : 0;
    served.push_back(std::move(one));
  }
  rung.stats = scheduler.stats();
  rung.requests = count;
  rung.p50_ms = Percentile(latencies, 0.50);
  rung.p95_ms = Percentile(latencies, 0.95);
  all_latencies_ms.insert(all_latencies_ms.end(), latencies.begin(), latencies.end());
  rung.goodput_rps = static_cast<double>(good) / sent_s;
  rung.backlog = static_cast<size_t>(Median(backlogs));
  rung.pass = rung.p95_ms <= kLatencyLimitMs &&
              static_cast<double>(rung.backlog) <= std::max(4.0, rate * kLatencyLimitMs / 1e3);
  return rung;
}

// Serves the nominal rung `passes` times, each on a fresh testbed (caches
// on, so new subjects fill them and repeats hit or coalesce) with its own
// seeded repeats and probes; the nominal p50 and p95 pool the latencies of
// every pass. The ladder then climbs from the last pass's testbed.
ServePhase RunServe(const Corpus& corpus, const clair::TrainedModel& model,
                    SubjectPool& pool, uint64_t seed, int passes, size_t nominal_windows,
                    size_t rung_windows, int threads) {
  ServePhase phase;
  std::vector<double> nominal_ms;
  for (int pass = 0; pass < passes; ++pass) {
    const clair::Testbed testbed(*corpus.ecosystem, ExtractionOptions(threads));
    const CacheMix cache_before = Snapshot(testbed);
    ServeStream stream(pool, seed, static_cast<uint64_t>(pass));
    Rung nominal = RunRung(testbed, model, stream, kNominalRps, nominal_windows, threads,
                           phase.served, nominal_ms);
    phase.rungs.push_back(std::move(nominal));
    if (pass + 1 < passes) {
      continue;
    }
    phase.p50_ms = Percentile(nominal_ms, 0.50);
    phase.p95_ms = Percentile(nominal_ms, 0.95);
    bool climbing = phase.p95_ms <= kLatencyLimitMs && phase.rungs.back().pass;
    if (climbing) {
      phase.goodput_rps = phase.rungs.back().goodput_rps;
    }
    for (const double rate : kLadderRps) {
      if (!climbing || rate == kNominalRps) {
        continue;
      }
      std::vector<double> rung_ms;
      Rung rung =
          RunRung(testbed, model, stream, rate, rung_windows, threads, phase.served, rung_ms);
      climbing = rung.pass;
      if (climbing) {
        phase.goodput_rps = rung.goodput_rps;
      }
      phase.rungs.push_back(std::move(rung));
    }
    phase.traffic.Add(cache_before, Snapshot(testbed));
  }
  return phase;
}

struct ServeReference {
  metrics::FeatureVector features;
  std::vector<std::string> ids;
  std::vector<double> risks;
  double overall = 0.0;
  double extract_s = 0.0;
};

// Synchronous reference, computed as bench/serving_throughput does: one
// extraction on a cache-off testbed, per-hypothesis PredictRisk in
// StandardHypotheses() order, severity-weighted overall risk.
std::vector<ServeReference> ServeReferences(const Corpus& corpus,
                                            const clair::TrainedModel& model,
                                            const std::vector<Subject>& subjects) {
  const clair::Testbed reference(*corpus.ecosystem, CacheOffOptions());
  return support::ParallelMap<ServeReference>(subjects.size(), [&](size_t s) {
    ServeReference ref;
    const auto start = Clock::now();
    ref.features = reference.ExtractFeatures(subjects[s].files);
    ref.extract_s = Since(start);
    double weighted = 0.0;
    double weight_total = 0.0;
    for (const auto& hypothesis : clair::StandardHypotheses()) {
      const clair::HypothesisModel* bundle = model.ForHypothesis(hypothesis.id);
      if (bundle == nullptr) {
        continue;
      }
      const double risk = bundle->PredictRisk(ref.features);
      const double weight = clair::HypothesisSeverityWeight(hypothesis.id);
      ref.ids.push_back(hypothesis.id);
      ref.risks.push_back(risk);
      weighted += weight * risk;
      weight_total += weight;
    }
    ref.overall = weight_total > 0.0 ? weighted / weight_total : 0.0;
    return ref;
  });
}

void VerifyServed(const ServePhase& phase, std::vector<ServeReference>& references,
                  bool perturb, Checks& checks) {
  if (perturb && !references.empty()) {
    references[0].features.Add("loc.code", 1.0);
  }
  for (const Served& one : phase.served) {
    const ServeReference& ref = references[one.subject];
    const clair::ScoreResult& r = one.result;
    bool ok = r.state == clair::RequestState::kDone &&
              r.features.values() == ref.features.values();
    if (ok && one.extract_only) {
      ok = r.hypothesis_risks.empty();
    } else if (ok) {
      ok = r.hypothesis_ids == ref.ids && r.hypothesis_risks == ref.risks &&
           r.overall_risk == ref.overall;
    }
    checks.Op(ok, support::Format("request %llu (subject_%zu, %s): differs from the "
                                  "synchronous reference",
                                  static_cast<unsigned long long>(r.id), one.subject,
                                  clair::RequestStateName(r.state)));
  }
}

std::string RungsJson(const ServePhase& phase) {
  std::string out = "[";
  for (size_t i = 0; i < phase.rungs.size(); ++i) {
    const Rung& r = phase.rungs[i];
    out += support::Format(
        "%s{\"rate_rps\": %g, \"requests\": %zu, \"p50_ms\": %.3f, \"p95_ms\": %.3f, "
        "\"goodput_rps\": %.3f, \"backlog\": %zu, \"generator_max_late_ms\": %.3f, "
        "\"generator_mean_late_ms\": %.4f, "
        "\"waves\": %llu, \"coalesced\": %llu, \"pass\": %s}",
        i == 0 ? "" : ", ", r.rate, r.requests, r.p50_ms, r.p95_ms, r.goodput_rps,
        r.backlog, r.max_late_ms, r.mean_late_ms, static_cast<unsigned long long>(r.stats.waves),
        static_cast<unsigned long long>(r.stats.coalesced), r.pass ? "true" : "false");
  }
  return out + "]";
}

// ------------------------------------------------------------ per-layer --

// Layer spans whose self time the per-layer metrics report.
const char* const kLayers[] = {
    "corpus.generate", "lang.parse",      "lang.lower",         "metrics.app_features",
    "lang.interp",     "dataflow.features", "dataflow.intervals", "symexec.explore",
    "cvedb.join",      "clair.diff_plan"};

// Folds a traced replay into the per-layer metrics. trace.coverage is the
// share of the traced replay's wall time that layer spans cover;
// `reference_s`, the untraced wall time of the operation the replay mirrors,
// goes to the details for comparison.
void LayerMetrics(const clairbench::Tracer& traced, double traced_s, double untraced_s,
                  double reference_s, const clairbench::SymexecTally& sx,
                  Report& report) {
  const auto self = traced.SelfSeconds();
  double covered = 0.0;
  for (const char* layer : kLayers) {
    const auto it = self.find(layer);
    const double seconds = it == self.end() ? 0.0 : it->second;
    covered += seconds;
    if (std::strcmp(layer, "clair.diff_plan") != 0) {
      report.Metric(std::string(layer) + "_s", seconds, "s");
    }
  }
  report.Metric("symexec.entry_max_s", sx.entry_max_s, "s");
  report.Metric("symexec.entries", static_cast<double>(sx.entries), "count");
  report.Metric("symexec.paths", static_cast<double>(sx.paths), "count");
  report.Metric("symexec.solver_queries", static_cast<double>(sx.solver_queries), "count");
  report.Metric("symexec.sat_conflicts", static_cast<double>(sx.sat_conflicts), "count");
  report.Metric("symexec.prune_rate",
                static_cast<double>(sx.range_pruned) /
                    static_cast<double>(std::max<uint64_t>(1, sx.range_pruned + sx.solver_queries)),
                "ratio");
  report.Metric("symexec.budget_hit_entries", static_cast<double>(sx.budget_hit_entries),
                "count");
  report.Metric("trace.coverage", covered / std::max(traced_s, 1e-9), "ratio");
  report.Metric("trace.overhead", traced_s / std::max(untraced_s, 1e-9), "ratio");
  report.Detail("symexec_entry_max", JsonString(sx.entry_max_id));
  report.Detail("trace_reference_s", JsonNumber(reference_s));
  report.Detail("trace_spans", std::to_string(traced.spans().size()));
}

// Sweep-level per-layer metrics: a 1-worker sweep one ExtractRecord at a
// time (inside a 1-worker pool region, so nested parallel regions run
// inline exactly as they do in a sweep) gives the slowest app and the
// 1-worker wall time.
struct SerialSweep {
  double seconds = 0.0;
  double app_max_s = 0.0;
  std::string app_max;
  std::vector<clair::AppRecord> records;
};

SerialSweep RunSerialSweep(const Corpus& corpus) {
  SerialSweep sweep;
  const clair::Testbed testbed(*corpus.ecosystem, ExtractionOptions(1));
  support::ThreadPool serial(1);
  sweep.records.resize(corpus.apps.size());
  const auto start = Clock::now();
  serial.ParallelFor(corpus.apps.size(), [&](size_t i) {
    const auto app_start = Clock::now();
    sweep.records[i] = testbed.ExtractRecord(*corpus.apps[i]);
    const double seconds = Since(app_start);
    if (seconds > sweep.app_max_s) {
      sweep.app_max_s = seconds;
      sweep.app_max = corpus.apps[i]->name;
    }
  });
  sweep.seconds = Since(start);
  return sweep;
}

void SweepLayerMetrics(const Corpus& corpus, double sweep_s,
                       const std::vector<clair::AppRecord>& reference,
                       const SerialSweep& serial, Checks& checks, Report& report) {
  CheckRows(corpus, serial.records, reference, "1-worker ExtractRecord sweep", checks);
  report.Metric("clair.sweep_speedup", serial.seconds / std::max(sweep_s, 1e-9),
                "ratio");
  report.Metric("clair.app_max_s", serial.app_max_s, "s");
  report.Detail("app_max", JsonString(serial.app_max));
  report.Detail("serial_sweep_s", JsonNumber(serial.seconds));
}

void EditLayerMetrics(const EditPhase& phase, Report& report) {
  const double reused = static_cast<double>(phase.reused);
  const double computed = static_cast<double>(phase.computed);
  const double edits = static_cast<double>(std::max<size_t>(1, phase.latencies_ms.size()));
  report.Metric("clair.diff_plan_ms", Median(phase.diff_plan_ms), "ms");
  report.Metric("clair.fn_reuse_ratio", reused / std::max(reused + computed, 1.0), "ratio");
  report.Metric("clair.symexec_entries_rerun",
                static_cast<double>(phase.symexec_entries_computed) / edits, "entries/edit");
}

void ServeLayerMetrics(const ServePhase& phase, const clair::TrainedModel& model,
                       Report& report) {
  clair::SchedulerStats total;
  for (const Rung& rung : phase.rungs) {
    total.submitted += rung.stats.submitted;
    total.waves += rung.stats.waves;
    total.coalesced += rung.stats.coalesced;
    total.predict_batches += rung.stats.predict_batches;
    total.predict_rows += rung.stats.predict_rows;
  }
  // The nominal rate's median latency is the scheduler's own per-wave cost
  // (hand-offs, planning, batched predict) on small subjects; its p95 is the
  // wave held by the rung's slow extraction and the drain behind it.
  report.Metric("clair.sched.p50_ms", phase.p50_ms, "ms");
  report.Metric("clair.sched.p95_ms", phase.p95_ms, "ms");
  report.Metric("clair.sched.wave_size",
                static_cast<double>(total.submitted) /
                    static_cast<double>(std::max<uint64_t>(1, total.waves)),
                "requests");
  report.Metric("clair.sched.coalesced_ratio",
                static_cast<double>(total.coalesced) /
                    static_cast<double>(std::max<uint64_t>(1, total.submitted)),
                "ratio");
  // predict_rows counts each wave's rows once; predict_batches counts one
  // forest call per hypothesis model, and every call scores all the rows.
  report.Metric("clair.sched.predict_rows_per_batch",
                static_cast<double>(total.predict_rows * model.models().size()) /
                    static_cast<double>(std::max<uint64_t>(1, total.predict_batches)),
                "rows");
}

void RobustnessMetrics(const clair::Testbed& testbed, Report& report) {
  const clair::RunReport run = testbed.run_report();
  report.Metric("clair.cache_evictions", static_cast<double>(run.cache_evictions), "count");
  report.Metric("clair.stages_degraded", static_cast<double>(run.TotalDegraded()), "count");
}

void MlLayerMetrics(const Trained& trained, const std::vector<clair::AppRecord>& records,
                    Checks& checks, Report& report) {
  const clairbench::MlReplay ml =
      clairbench::ReplayTraining(*trained.pipeline, trained.reports, trained.model, records);
  for (const auto& [learner, seconds] : ml.cv_s) {
    report.Metric("ml.cv_s." + learner, seconds, "s");
  }
  report.Metric("ml.predict_rows_per_s", ml.predict_rows_per_s, "rows/s");
  checks.Count(ml.checks, ml.mismatches, "ml replay: cross-validation differs from training");
}

// Symbolic-execution counters of a replay must match the extracted row.
void CheckReplayCounters(const std::string& what, const clairbench::SymexecTally& sx,
                         const metrics::FeatureVector& row, Checks& checks) {
  const bool ok = static_cast<double>(sx.entries) == row.Get("symx.entries") &&
                  static_cast<double>(sx.paths) == row.Get("symx.paths") &&
                  static_cast<double>(sx.solver_queries) == row.Get("symx.solver_queries") &&
                  static_cast<double>(sx.sat_conflicts) == row.Get("symx.sat_conflicts");
  checks.Op(ok, what + ": replayed symbolic execution differs from the extracted row");
}

// ------------------------------------------------------------ workloads --

std::string JsonList(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += support::Format("%s%.4f", i == 0 ? "" : ", ", values[i]);
  }
  return out + "]";
}

// The measurement window: rounds of one cold sweep at the run's workers on a
// fresh testbed, one training on its rows and one block of the edit stream,
// repeated until `seconds` have passed and at least kMinRounds ran (trace
// runs: exactly kMinRounds). Every sweep's rows are checked against
// `expected`, every training against the run's first.
struct Window {
  std::vector<double> sweep_s;  // Set-up sweeps and trainings, if any, then
  std::vector<double> train_s;  // one of each per timed round.
  std::vector<clair::HypothesisReport> first_reports;  // The run's first training.
  Sweep sweep;                  // The last round's ...
  Trained trained;              // ... and its training.
  EditPhase edits;
  CacheTraffic sweep_traffic;   // Of the first round's cold sweep.
  int rounds = 0;
};

struct Primed {
  std::unique_ptr<Corpus> corpus;
  Sweep sweep;
  Trained trained;
};

// edit_rescore set-up: corpus, a cold sweep that primes the testbed's
// caches, training. Repeated kSetups times; the last one is kept. The
// first warms the process up; the sweep and training of every later one
// count towards the run's medians.
Primed PrimedSetup(const Args& args, int workers, Report& report, Window& window) {
  std::vector<double> setup_s;
  Primed primed;
  const int setups = args.short_mode ? 2 : kSetups;
  for (int rep = 0; rep < setups; ++rep) {
    primed = Primed();  // Frees the previous set-up before the next one.
    const auto start = Clock::now();
    primed.corpus = MakeCorpus(args.short_mode);
    primed.sweep = ColdSweep(*primed.corpus, workers);
    primed.trained = Train(primed.sweep.records);
    setup_s.push_back(Since(start));
    if (rep > 0) {
      window.sweep_s.push_back(primed.sweep.seconds);
      window.train_s.push_back(primed.trained.seconds);
    }
  }
  if (!args.trace) {
    report.Metric("setup_s", Median(setup_s), "s");
  }
  report.Detail("setups", std::to_string(setup_s.size()));
  report.phases.Mark("setup");
  return primed;
}

// One round of the window; see Window.
void RunRound(const Args& args, int workers, const Corpus& corpus, const EditTargets& targets,
              const std::vector<clair::AppRecord>& expected,
              const clair::Testbed* edit_testbed, const clair::TrainedModel* edit_model,
              size_t edits, Window& window, Checks& checks) {
  window.sweep = Sweep();  // Frees the previous round's testbed first.
  window.sweep = ColdSweep(corpus, workers);
  window.sweep_s.push_back(window.sweep.seconds);
  CheckRows(corpus, window.sweep.records, expected, "sweep", checks);
  if (window.rounds == 0) {
    window.sweep_traffic.Add(CacheMix(), Snapshot(*window.sweep.testbed));
  }
  window.trained = Train(window.sweep.records);
  window.train_s.push_back(window.trained.seconds);
  if (window.first_reports.empty()) {
    window.first_reports = window.trained.reports;
  }
  CheckTraining(window.first_reports, window.trained, checks);
  RunEdits(corpus, targets, edit_testbed != nullptr ? *edit_testbed : *window.sweep.testbed,
           edit_model != nullptr ? *edit_model : window.trained.model, args.seed, edits,
           args.trace, window.edits);
  ++window.rounds;
}

// `edit_testbed`/`edit_model` re-score the edits; when null, each round
// re-scores on its own swept testbed with its own model.
void RunWindow(const Args& args, int workers, const Corpus& corpus, const EditTargets& targets,
               const std::vector<clair::AppRecord>& expected,
               const clair::Testbed* edit_testbed, const clair::TrainedModel* edit_model,
               Window& window, Checks& checks) {
  const int min_rounds = args.short_mode ? 1 : kMinRounds;
  const size_t edits = args.short_mode ? 20 : kRoundEdits;
  const auto start = Clock::now();
  while (window.rounds < min_rounds || (!args.trace && Since(start) < args.seconds)) {
    RunRound(args, workers, corpus, targets, expected, edit_testbed, edit_model, edits, window,
             checks);
  }
}

void WindowMetrics(const Corpus& corpus, const Window& window, Report& report) {
  report.Metric("sweep_apps_per_s",
                static_cast<double>(corpus.apps.size()) /
                    std::max(Median(window.sweep_s), 1e-9),
                "apps/s");
  report.Metric("train_s", Median(window.train_s), "s");
  report.Metric("cv_accuracy", window.trained.cv_accuracy, "ratio");
  report.Metric("rescore_p50_ms", Percentile(window.edits.latencies_ms, 0.50), "ms");
  report.Metric("rescore_p95_ms", Percentile(window.edits.latencies_ms, 0.95), "ms");
}

void WindowDetails(const Corpus& corpus, const Window& window, Report& report) {
  report.Detail("rounds", std::to_string(window.rounds));
  report.Detail("apps", std::to_string(corpus.apps.size()));
  report.Detail("sweep_s", JsonList(window.sweep_s));
  report.Detail("train_s", JsonList(window.train_s));
  report.Detail("sweep_cache_mix", window.sweep_traffic.Json());
  report.Detail("edits", std::to_string(window.edits.latencies_ms.size()));
  report.Detail("edits_verified", std::to_string(window.edits.verified.size()));
  report.Detail("edits_cache_mix", window.edits.traffic.Json());
}

void ServeStage(const Corpus& corpus, const clair::TrainedModel& model, const Args& args,
                int workers, Report& report) {
  SubjectPool pool;
  const int passes = args.trace && !args.short_mode ? kTraceNominalPasses : 1;
  const ServePhase phase =
      RunServe(corpus, model, pool, args.seed, passes, args.short_mode ? 1 : kNominalWindows,
               args.short_mode ? 1 : kRungWindows, workers);
  report.phases.Mark("serve");
  std::vector<ServeReference> references = ServeReferences(corpus, model, pool.subjects());
  VerifyServed(phase, references, args.perturb_reference, report.checks);
  report.phases.Mark("serve_check");
  if (!args.trace) {
    report.Metric("serve_goodput_rps", phase.goodput_rps, "1/s");
  } else {
    ServeLayerMetrics(phase, model, report);
  }
  report.Detail("serve_ladder", RungsJson(phase));
  report.Detail("serve_subjects", std::to_string(pool.subjects().size()));
  report.Detail("serve_cache_mix", phase.traffic.Json());
}

// Verifies the window's sampled edits; reports the window's metrics (trace
// runs: the edit stream's layer metrics).
void FinishWindow(const Corpus& corpus, const EditTargets& targets,
                  const clair::TrainedModel& model, const Args& args, const Window& window,
                  Report& report) {
  VerifyEdits(corpus, targets, model, args.seed, window.edits, args.perturb_reference,
              report.checks);
  report.phases.Mark("edits_check");
  WindowDetails(corpus, window, report);
  if (!args.trace) {
    WindowMetrics(corpus, window, report);
  } else {
    EditLayerMetrics(window.edits, report);
  }
}

// Replays with tracing off, then on: overhead is the ratio of the two.
template <typename Fn>
clairbench::SymexecTally TracedReplay(const Fn& replay, clairbench::Tracer& traced,
                                      double& traced_s, double& untraced_s) {
  clairbench::Tracer off(false);
  auto start = Clock::now();
  replay(off);
  untraced_s = Since(start);
  start = Clock::now();
  clairbench::SymexecTally tally = replay(traced);
  traced_s = Since(start);
  return tally;
}

void CorpusCold(const Args& args, int workers, Report& report, clairbench::Tracer& tracer) {
  std::vector<double> setup_s;
  std::unique_ptr<Corpus> corpus;
  for (int rep = 0; rep < (args.short_mode ? 2 : kCorpusSetups); ++rep) {
    const auto start = Clock::now();
    corpus = MakeCorpus(args.short_mode);
    setup_s.push_back(Since(start));
  }
  if (!args.trace) {
    report.Metric("setup_s", Median(setup_s), "s");
  }
  report.Detail("setups", std::to_string(setup_s.size()));
  report.phases.Mark("setup");

  // Reference first: it is also the process's warm-up, so the timed sweeps
  // start from a warm allocator.
  const auto reference_start = Clock::now();
  const std::vector<clair::AppRecord> reference = ColdSweep(*corpus, 1).records;
  report.Detail("reference_1worker_s", JsonNumber(Since(reference_start)));
  report.phases.Mark("reference");
  std::vector<clair::AppRecord> expected = reference;
  if (args.perturb_reference && !expected.empty()) {
    expected[0].features.Add("loc.code", 1.0);
  }
  const EditTargets targets = FindEditTargets(*corpus);
  Window window;
  RunWindow(args, workers, *corpus, targets, expected, nullptr, nullptr, window,
            report.checks);
  report.phases.Mark("window");
  FinishWindow(*corpus, targets, window.trained.model, args, window, report);
  ServeStage(*corpus, window.trained.model, args, workers, report);
  if (!args.trace) {
    return;
  }
  RobustnessMetrics(*window.sweep.testbed, report);
  const SerialSweep serial = RunSerialSweep(*corpus);
  report.phases.Mark("serial_sweep");
  SweepLayerMetrics(*corpus, Median(window.sweep_s), reference, serial, report.checks, report);
  MlLayerMetrics(window.trained, window.sweep.records, report.checks, report);
  report.phases.Mark("ml_replay");
  double traced_s = 0.0;
  double untraced_s = 0.0;
  std::vector<clairbench::SymexecTally> per_app(corpus->apps.size());
  const clair::TestbedOptions options = ExtractionOptions(1);
  const clairbench::SymexecTally sx = TracedReplay(
      [&](clairbench::Tracer& t) {
        clairbench::SymexecTally all;
        for (size_t i = 0; i < corpus->apps.size(); ++i) {
          per_app[i] = clairbench::ReplayApp(t, *corpus->ecosystem, *corpus->apps[i], options);
          all.Add(per_app[i]);
        }
        return all;
      },
      tracer, traced_s, untraced_s);
  for (size_t i = 0; i < corpus->apps.size(); ++i) {
    CheckReplayCounters(corpus->apps[i]->name, per_app[i], reference[i].features,
                        report.checks);
  }
  report.phases.Mark("layer_replay");
  LayerMetrics(tracer, traced_s, untraced_s, serial.seconds, sx, report);
}

void EditRescore(const Args& args, int workers, Report& report, clairbench::Tracer& tracer) {
  Window window;
  Primed primed = PrimedSetup(args, workers, report, window);
  const Corpus& corpus = *primed.corpus;
  window.first_reports = primed.trained.reports;
  const EditTargets targets = FindEditTargets(corpus);
  RunWindow(args, workers, corpus, targets, primed.sweep.records, primed.sweep.testbed.get(),
            &primed.trained.model, window, report.checks);
  report.phases.Mark("window");
  FinishWindow(corpus, targets, primed.trained.model, args, window, report);
  ServeStage(corpus, primed.trained.model, args, workers, report);
  if (!args.trace) {
    return;
  }
  RobustnessMetrics(*primed.sweep.testbed, report);
  const SerialSweep serial = RunSerialSweep(corpus);
  report.phases.Mark("serial_sweep");
  SweepLayerMetrics(corpus, Median(window.sweep_s), primed.sweep.records, serial, report.checks,
                    report);
  MlLayerMetrics(primed.trained, primed.sweep.records, report.checks, report);
  report.phases.Mark("ml_replay");
  // Replay the verified edits' re-run set: diff planning, the changed
  // file's shallow metrics and, for the deep file, its deep battery with
  // only the entries whose closure reaches the edited function.
  const clair::TestbedOptions options = ExtractionOptions(1);
  double warm_s = 0.0;
  for (const auto& verified : window.edits.verified) {
    warm_s += verified.latency_ms / 1e3;
  }
  double traced_s = 0.0;
  double untraced_s = 0.0;
  const clairbench::SymexecTally sx = TracedReplay(
      [&](clairbench::Tracer& t) {
        clairbench::SymexecTally all;
        for (const auto& verified : window.edits.verified) {
          const Edit edit = MakeEdit(corpus, targets, args.seed, verified.k);
          const std::string id = support::Format("edit_%zu", verified.k);
          auto edit_span = t.Open("edit", id);
          {
            auto span = t.Open("clair.diff_plan", id);
            clair::PlanFunctionDiff(corpus.sources[edit.app], edit.files);
          }
          const metrics::SourceFile& changed = edit.files[edit.file];
          {
            auto span = t.Open("metrics.app_features", id);
            metrics::ExtractFileFeatures(changed);
          }
          if (edit.deep) {
            const std::set<std::string> touched = {edit.function};
            all.Add(clairbench::ReplayDeepFile(t, id + "/" + changed.path, changed, 0,
                                               options, &touched));
          }
        }
        return all;
      },
      tracer, traced_s, untraced_s);
  report.phases.Mark("layer_replay");
  LayerMetrics(tracer, traced_s, untraced_s, warm_s, sx, report);
}

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      args.seconds = std::atof(argv[++i]);
    } else if (flag == "--trace" && has_value) {
      args.trace = std::string(argv[++i]) == "1";
    } else if (flag == "--trace-out" && has_value) {
      args.trace_out = argv[++i];
    } else if (flag == "--short") {
      args.short_mode = true;
    } else if (flag == "--perturb-reference") {
      args.perturb_reference = true;
    } else {
      std::fprintf(stderr, "clairbench: unknown or incomplete argument %s\n", flag.c_str());
      return false;
    }
  }
  if (args.workload != "corpus_cold" && args.workload != "edit_rescore") {
    std::fprintf(stderr, "clairbench: --workload must be corpus_cold or edit_rescore\n");
    return false;
  }
  return args.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    return 2;
  }
  const int nproc = Nproc();
  // Half the CPUs the process may use. Every parallel region of the library
  // (training, reference extraction) uses the same workers as the sweeps
  // and the scheduler. On a shared host the process does not get all of
  // its CPUs all of the time, and a 4-worker sweep on 4 CPUs waits for the
  // slowest: over six minutes on a 4-CPU share, six processes' median
  // 4-worker sweeps read 2.8 to 5.2 s, while 2-worker sweeps interleaved
  // with them read 5.1 to 5.9 s.
  const int workers = std::max(1, nproc / 2);
  support::ThreadPool::SetGlobalThreads(workers);
  Report report;
  clairbench::Tracer tracer(args.trace);
  const auto start = Clock::now();
  if (args.workload == "corpus_cold") {
    CorpusCold(args, workers, report, tracer);
  } else {
    EditRescore(args, workers, report, tracer);
  }
  if (!args.trace) {
    report.Metric("peak_rss_mb", PeakRssMb(), "MB");
  }
  if (args.trace && !args.trace_out.empty() && !tracer.WriteChromeJson(args.trace_out)) {
    std::fprintf(stderr, "clairbench: cannot write %s\n", args.trace_out.c_str());
    return 1;
  }

  const corpus::CorpusOptions shape = CorpusShape(args.short_mode);
  std::string details = support::Format(
      "{\"workload\": %s, \"seed\": %llu, \"seconds\": %g, \"trace\": %d, \"short\": %s, "
      "\"nproc\": %d, \"workers\": %d, \"build_type\": %s, \"compiler\": %s, \"corpus\": {\"mature_apps\": "
      "%d, \"immature_apps\": %d, \"size_scale\": %g, \"seed\": %llu, "
      "\"deep_analysis_max_files\": %d}, \"wall_s\": %.3f",
      JsonString(args.workload).c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, args.short_mode ? "true" : "false", nproc, workers,
      JsonString(CLAIRBENCH_BUILD_TYPE).c_str(), JsonString("gcc " __VERSION__).c_str(),
      shape.mature_apps, shape.immature_apps, shape.size_scale,
      static_cast<unsigned long long>(shape.seed), kDeepFiles, Since(start));
  for (const auto& [key, json] : report.details) {
    details += ", " + JsonString(key) + ": " + json;
  }
  details += ", \"phase_s\": {" + report.phases.json + "}";
  details += ", \"failures\": [";
  for (size_t i = 0; i < report.checks.failures.size(); ++i) {
    details += (i == 0 ? "" : ", ") + JsonString(report.checks.failures[i]);
  }
  details += "]}";
  std::printf("%s\n", details.c_str());

  std::string metrics;
  for (const auto& [name, value] : report.metrics) {
    metrics += support::Format("%s%s: {\"value\": %s, \"unit\": %s}",
                               metrics.empty() ? "" : ", ", JsonString(name).c_str(),
                               JsonNumber(value.first).c_str(),
                               JsonString(value.second).c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              report.checks.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(report.checks.attempted),
              static_cast<unsigned long long>(report.checks.failed), metrics.c_str());
  return 0;
}
