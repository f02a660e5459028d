// Traced layer replay: calls each layer's public functions in the order the
// testbed's extraction runs them, one span per call (see trace.h), so the
// benchmark can attribute wall time and solver work to layers without
// instrumenting src/.
//
// The replay follows the module-level extraction path: the same deep-file
// budget, symbolic-execution entries and per-entry seeds, and dynamic-trace
// seeds as clair::Testbed. The driver checks that its symbolic-execution
// counters match the rows the testbed produced, so a drift between the two
// paths fails the run instead of skewing the breakdown.
#ifndef CLAIRBENCH_REPLAY_H_
#define CLAIRBENCH_REPLAY_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "clairbench/trace.h"
#include "src/clair/pipeline.h"
#include "src/clair/testbed.h"
#include "src/corpus/ecosystem.h"
#include "src/metrics/extract.h"

namespace clairbench {

// Work done by the symbolic-execution layer over the replayed entries.
struct SymexecTally {
  uint64_t entries = 0;
  uint64_t paths = 0;
  uint64_t solver_queries = 0;
  uint64_t range_pruned = 0;
  uint64_t sat_conflicts = 0;
  uint64_t budget_hit_entries = 0;  // solver_queries reached max_solver_queries.
  double entry_max_s = 0.0;         // Slowest single exploration ...
  std::string entry_max_id;         // ... and its "subject/file/entry" id.

  void Add(const SymexecTally& other);
};

// Replays the deep battery of one MiniC file: parse, lower, dataflow,
// intervals, symbolic execution per entry, dynamic traces. `deep_index` is
// the file's position among the subject's deep candidates (it seeds the
// dynamic traces). When `touched` is non-null only the entries whose call
// closure reaches a touched function are explored: the set a warm re-score
// re-runs after an edit.
SymexecTally ReplayDeepFile(Tracer& tracer, const std::string& id,
                            const metrics::SourceFile& file, int deep_index,
                            const clair::TestbedOptions& options,
                            const std::set<std::string>* touched);

// Replays one app's cold extraction: source generation, shallow metrics of
// every file, the deep battery of the budgeted files and the CVE label join.
SymexecTally ReplayApp(Tracer& tracer, const corpus::EcosystemGenerator& ecosystem,
                       const corpus::AppSpec& spec,
                       const clair::TestbedOptions& options);

// Replays training's cross-validation one learner at a time and times batch
// prediction with the final models.
struct MlReplay {
  std::map<std::string, double> cv_s;  // Per learner, summed over hypotheses.
  double predict_rows_per_s = 0.0;
  uint64_t checks = 0;      // Replayed CV results compared with the pipeline's.
  uint64_t mismatches = 0;
};

MlReplay ReplayTraining(const clair::TrainingPipeline& pipeline,
                        const std::vector<clair::HypothesisReport>& reports,
                        const clair::TrainedModel& model,
                        const std::vector<clair::AppRecord>& records);

}  // namespace clairbench

#endif  // CLAIRBENCH_REPLAY_H_
