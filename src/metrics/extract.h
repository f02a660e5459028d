// Top-level static feature extraction — the "automated framework to collect
// all the code properties from the sample applications" of §5.1 (the paper
// names CCCC and Metrix++ as the comparable tools).
//
// MiniC sources get the full treatment (parse, lower, CFG/call-graph
// analyses). Python/Java sources receive text-level features only (line
// classes and lightweight declaration counting), mirroring how cloc treats
// languages it cannot parse deeply.
#ifndef SRC_METRICS_EXTRACT_H_
#define SRC_METRICS_EXTRACT_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/lang/ast.h"
#include "src/lang/frontend.h"
#include "src/lang/ir.h"
#include "src/metrics/cloc.h"
#include "src/metrics/feature_vector.h"
#include "src/support/result.h"

namespace metrics {

struct SourceFile {
  std::string path;
  Language language = Language::kMiniC;
  std::string text;
};

// Extracts features for a single file. Never fails: unparseable MiniC
// degrades to text-level features plus "parse.failed"=1.
FeatureVector ExtractFileFeatures(const SourceFile& file);

// ExtractFileFeatures of a MiniC `file` whose front end already ran:
// `front` must be lang::RunFrontEnd(file.text). Lets a caller that keeps the
// AST and IR derive the file's row from the same pass.
FeatureVector FileFeaturesFromFrontEnd(const SourceFile& file, const lang::FrontEnd& front);

// Extracts and aggregates features across an application's files, adding
// app-level features (file count, language mix, call-graph shape, mean and
// max per-function complexity).
FeatureVector ExtractAppFeatures(const std::vector<SourceFile>& files);

// ExtractAppFeatures with each file's vector supplied by `file_row`
// (ExtractFileFeatures, or a stored copy of its output): MergeSum in file
// order, then the app-level epilogue.
FeatureVector AppFeaturesFromFiles(
    const std::vector<SourceFile>& files,
    const std::function<FeatureVector(const SourceFile&)>& file_row);

// The Shin et al. per-function features the paper cites in §4 (LoC, number
// of functions, declarations, branches, preprocessed lines, in/out args);
// exposed separately for tests.
FeatureVector ShinFeatures(const lang::TranslationUnit& unit, const lang::IrModule& module);

// ---------------------------------------------------------------------------
// Function-granular extraction, for LEOPARD-style ranking of individual
// functions rather than whole applications. The schema is FIXED — every
// function yields the same feature names in the same order — so per-function
// rows from different files can stream straight into a columnar store
// without schema reconciliation.
// ---------------------------------------------------------------------------

// The fixed schema, in column order. Structural counts ("fn."), call-graph
// shape ("cg."), per-function static bug signals ("sig.", one column per
// BugSignal::Kind), and version-history process metrics ("proc.", zeros
// when no history is supplied).
const std::vector<std::string>& FunctionFeatureNames();

struct FunctionFeatures {
  std::string name;            // Function name (unique within a MiniC file).
  std::vector<double> values;  // Parallel to FunctionFeatureNames().
};

// Version-history ("process") metrics for one function — Viszkok et al.
// show churn/age/touch features materially improve vulnerability prediction
// over static metrics alone. Produced by corpus::VersionHistory for the
// synthetic corpus; any VCS walker can fill them for real code. This layer
// only consumes the numbers.
struct ProcessMetrics {
  double touches = 0.0;            // Commits that modified the function.
  double age_days = 0.0;           // Days since the function first appeared.
  double days_since_change = 0.0;  // Days since its last modification.
  double lines_added = 0.0;        // Lines added across its history.
  double lines_deleted = 0.0;      // Lines deleted across its history.
};

// One entry per function in `unit`, in declaration order. `module` must be
// the lowering of `unit` (names are matched; functions missing from the IR
// get zeros for IR-derived columns). `process`, when non-null, maps function
// name to its history metrics; absent functions (and a null map) yield
// all-zero proc.* columns, so schemas never fork.
std::vector<FunctionFeatures> ExtractFunctionFeatures(
    const lang::TranslationUnit& unit, const lang::IrModule& module,
    const std::map<std::string, ProcessMetrics>* process = nullptr);

}  // namespace metrics

#endif  // SRC_METRICS_EXTRACT_H_
