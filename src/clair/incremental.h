// Function-granular incremental extraction support.
//
// A commit touches a handful of functions, but the app-level feature cache
// is content-addressed at whole-app granularity — any edit invalidates the
// entire deep battery. This header provides the three pieces that make
// re-extraction O(changed functions):
//
//   1. *Function content addressing*: each function body is identified by a
//      normalized token hash (FNV-1a over the lexed (kind, spelling) stream
//      inside the function's line span) — whitespace and comment changes do
//      not perturb the key, any token change does. `IndexFunctions` builds
//      the per-file index.
//   2. *Diff planning*: `PlanFunctionDiff` compares two versions of a file
//      set and classifies every function as unchanged / modified / added /
//      deleted, so callers re-run deep analyses only for the changed set.
//   3. *AST reuse*: `AstCache` keeps parsed units + lowered modules of
//      recently-seen file texts (shared, immutable), so unchanged files in
//      a warm re-score skip the parser entirely.
//
// DESIGN.md §9 documents the protocol and its bit-identity argument.
#ifndef SRC_CLAIR_INCREMENTAL_H_
#define SRC_CLAIR_INCREMENTAL_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/clair/feature_cache.h"
#include "src/lang/ast.h"
#include "src/lang/ir.h"
#include "src/metrics/extract.h"
#include "src/symexec/executor.h"

namespace clair {

// One function's identity inside a file: name + normalized body-token hash.
struct FunctionFingerprint {
  std::string name;
  uint64_t token_hash = 0;  // FNV-1a over (kind, text) of the body's tokens.
  int line = 0;             // Declaration line (1-based).
  int end_line = 0;         // Closing-brace line.
};

// Token-level index of one MiniC file. For unparseable files `parsed` is
// false and `functions` is empty — the planner then treats the whole file
// as one opaque changed unit.
struct FileFunctionIndex {
  std::string path;
  // Hash of the file's full normalized token stream (all tokens, comments
  // and whitespace excluded). Fast equality shortcut for unchanged files.
  uint64_t file_token_hash = 0;
  // Hash of the tokens OUTSIDE every function span (globals, stray
  // declarations). Part of symexec closure keys: a global initializer edit
  // must invalidate entries even when no function body changed.
  uint64_t preamble_hash = 0;
  std::vector<FunctionFingerprint> functions;
  bool parsed = false;
};

// Lexes + parses `file` and fingerprints each function. Non-MiniC files and
// lex/parse failures return an index with parsed=false (file_token_hash
// still covers the raw text so the planner can detect change).
FileFunctionIndex IndexFunctions(const metrics::SourceFile& file);

enum class FunctionChange { kUnchanged, kModified, kAdded, kDeleted };

const char* FunctionChangeName(FunctionChange change);

struct FunctionDelta {
  std::string path;
  std::string function;
  FunctionChange change = FunctionChange::kUnchanged;
};

// The planner's verdict over two adjacent versions of a file set.
struct DiffPlan {
  std::vector<FunctionDelta> deltas;  // File order, then declaration order.
  std::vector<std::string> changed_files;  // Files with any non-unchanged delta.
  size_t unchanged = 0;
  size_t modified = 0;
  size_t added = 0;
  size_t deleted = 0;

  size_t Changed() const { return modified + added + deleted; }
};

// Classifies every function across two versions. Files are matched by path,
// functions by name within a file (MiniC function names are unique per
// file). A file present in only one version contributes all-added or
// all-deleted deltas; an unparseable file whose text hash differs
// contributes one modified delta under its path with an empty function
// name.
DiffPlan PlanFunctionDiff(const std::vector<FileFunctionIndex>& old_version,
                          const std::vector<FileFunctionIndex>& new_version);

// Convenience overload: indexes both file sets, then plans.
DiffPlan PlanFunctionDiff(const std::vector<metrics::SourceFile>& old_files,
                          const std::vector<metrics::SourceFile>& new_files);

// Immutable front-end artifacts for one file text, shared between the stage
// walk and the function-granular caches. All of them come from one lex, one
// parse and one lowering (lang::RunFrontEnd); the tokens are not kept.
struct ParsedFile {
  std::shared_ptr<const lang::TranslationUnit> unit;
  std::shared_ptr<const lang::IrModule> module;  // Null if lowering failed.
  FileFunctionIndex index;
};

// FIFO-bounded cache of ParsedFile keyed by a digest of the file text.
// Thread-safe; entries are shared_ptr-immutable so concurrent readers never
// copy an AST.
class AstCache {
 public:
  explicit AstCache(size_t max_entries = 256) : max_entries_(max_entries) {}

  // Returns the cached artifacts for `file`, parsing (and caching) on miss.
  // The returned ParsedFile's unit/module may be null when the file does not
  // parse or lower — negative results are cached too, so a warm re-score of
  // a broken file never re-parses it. When `row` is non-null and the call
  // misses, the file's metrics::ExtractFileFeatures row is derived from the
  // same front-end pass and stored in `*row`; a hit leaves `*row` alone.
  std::shared_ptr<const ParsedFile> Get(
      const metrics::SourceFile& file,
      std::optional<metrics::FeatureVector>* row = nullptr) const;

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }

 private:
  size_t max_entries_;
  mutable std::mutex mutex_;
  mutable std::unordered_map<uint64_t, std::shared_ptr<const ParsedFile>> entries_;
  mutable std::deque<uint64_t> order_;
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
};

// The RowCache layout of one symexec entry's payload: the seven counters
// symx::SymexFeaturesFromResults folds (paths explored and completed, solver
// queries, range-pruned checks, SAT conflicts, model-reuse hits, simplifier
// folds), the vuln count n, then n (kind, exploit fraction) pairs.
std::vector<double> EncodeSymexRow(const symx::SymExecResult& result);

// Inverse of EncodeSymexRow over the fields the fold reads. Accepts `row`
// only when its size is exactly 8 + 2n for its stored count n, every counter
// fits a uint64_t and every kind is a valid VulnKind; returns false (and
// leaves `result` alone) otherwise, so a damaged row is a miss and gets
// recomputed.
bool DecodeSymexRow(const std::vector<double>& row, symx::SymExecResult* result);

// Normalized token hash of a whole MiniC text (0 when it does not lex).
// Exposed for tests and for call sites that key on file contents.
uint64_t TokenHashOfText(const std::string& text);

}  // namespace clair

#endif  // SRC_CLAIR_INCREMENTAL_H_
