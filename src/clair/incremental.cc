#include "src/clair/incremental.h"

#include <algorithm>
#include <map>
#include <utility>

#include "src/lang/frontend.h"
#include "src/lang/lexer.h"
#include "src/lang/parser.h"

namespace clair {
namespace {

// Seed distinct from the app/file cache domains so function keys never
// collide with file keys by construction.
const uint64_t kFunctionHashSeed = Fnv1a64("clair.incremental.fn.v1");

uint64_t MixToken(uint64_t hash, const lang::Token& token) {
  hash = (hash ^ static_cast<uint64_t>(token.kind)) * 0x100000001b3ULL;
  hash = Fnv1a64(token.text, hash);
  // Separator: ("ab","c") and ("a","bc") must differ.
  return (hash ^ 0x1fULL) * 0x100000001b3ULL;
}

}  // namespace

const char* FunctionChangeName(FunctionChange change) {
  switch (change) {
    case FunctionChange::kUnchanged:
      return "unchanged";
    case FunctionChange::kModified:
      return "modified";
    case FunctionChange::kAdded:
      return "added";
    case FunctionChange::kDeleted:
      return "deleted";
  }
  return "?";
}

uint64_t TokenHashOfText(const std::string& text) {
  const auto lexed = lang::Lex(text);
  if (!lexed.ok()) {
    return 0;
  }
  uint64_t hash = kFunctionHashSeed;
  for (const auto& token : lexed.value().tokens) {
    if (token.kind == lang::TokenKind::kEof) {
      break;
    }
    hash = MixToken(hash, token);
  }
  return hash;
}

namespace {

// The index of `file` from its tokens and their parse; either is null when
// that stage failed, and the file is then one opaque unit.
FileFunctionIndex IndexFromTokens(const metrics::SourceFile& file,
                                  const std::vector<lang::Token>* tokens,
                                  const lang::TranslationUnit* unit) {
  FileFunctionIndex index;
  index.path = file.path;
  if (tokens == nullptr || unit == nullptr) {
    // Opaque content: text digest only, so the planner still sees change.
    index.file_token_hash = Fnv1a64(file.text);
    return index;
  }
  index.parsed = true;

  // Function spans in declaration order (the parser emits them sorted by
  // line; functions never share a line in MiniC).
  for (const auto& fn : unit->functions) {
    FunctionFingerprint fp;
    fp.name = fn.name;
    fp.line = fn.line;
    fp.end_line = fn.end_line;
    fp.token_hash = kFunctionHashSeed;
    index.functions.push_back(std::move(fp));
  }

  uint64_t file_hash = kFunctionHashSeed;
  uint64_t preamble = kFunctionHashSeed;
  size_t current = 0;  // Function whose span we may be inside.
  for (const auto& token : *tokens) {
    if (token.kind == lang::TokenKind::kEof) {
      break;
    }
    file_hash = MixToken(file_hash, token);
    // Advance past spans that ended before this token's line.
    while (current < index.functions.size() &&
           token.line > index.functions[current].end_line) {
      ++current;
    }
    if (current < index.functions.size() &&
        token.line >= index.functions[current].line &&
        token.line <= index.functions[current].end_line) {
      index.functions[current].token_hash =
          MixToken(index.functions[current].token_hash, token);
    } else {
      preamble = MixToken(preamble, token);
    }
  }
  index.file_token_hash = file_hash;
  index.preamble_hash = preamble;
  return index;
}

}  // namespace

FileFunctionIndex IndexFunctions(const metrics::SourceFile& file) {
  if (file.language != metrics::Language::kMiniC) {
    return IndexFromTokens(file, nullptr, nullptr);
  }
  const auto lexed = lang::Lex(file.text);
  if (!lexed.ok()) {
    return IndexFromTokens(file, nullptr, nullptr);
  }
  const auto& tokens = lexed.value().tokens;
  const auto unit = lang::ParseTokens(file.text, tokens);
  return IndexFromTokens(file, &tokens, unit.ok() ? &unit.value() : nullptr);
}

DiffPlan PlanFunctionDiff(const std::vector<FileFunctionIndex>& old_version,
                          const std::vector<FileFunctionIndex>& new_version) {
  DiffPlan plan;
  std::map<std::string, const FileFunctionIndex*> old_by_path;
  for (const auto& file : old_version) {
    old_by_path[file.path] = &file;
  }
  auto note = [&plan](const std::string& path, const std::string& function,
                      FunctionChange change) {
    plan.deltas.push_back({path, function, change});
    switch (change) {
      case FunctionChange::kUnchanged:
        ++plan.unchanged;
        return;
      case FunctionChange::kModified:
        ++plan.modified;
        break;
      case FunctionChange::kAdded:
        ++plan.added;
        break;
      case FunctionChange::kDeleted:
        ++plan.deleted;
        break;
    }
    if (plan.changed_files.empty() || plan.changed_files.back() != path) {
      plan.changed_files.push_back(path);
    }
  };

  for (const auto& file : new_version) {
    const auto it = old_by_path.find(file.path);
    if (it == old_by_path.end()) {
      // New file: every function is an addition (or the file as a whole when
      // it is opaque).
      if (file.functions.empty()) {
        note(file.path, "", FunctionChange::kAdded);
      }
      for (const auto& fn : file.functions) {
        note(file.path, fn.name, FunctionChange::kAdded);
      }
      continue;
    }
    const FileFunctionIndex& old_file = *it->second;
    old_by_path.erase(it);
    if (!file.parsed || !old_file.parsed) {
      // Opaque on either side: one whole-file verdict from the text digest.
      note(file.path, "",
           file.file_token_hash == old_file.file_token_hash
               ? FunctionChange::kUnchanged
               : FunctionChange::kModified);
      continue;
    }
    std::map<std::string, const FunctionFingerprint*> old_fns;
    for (const auto& fn : old_file.functions) {
      old_fns[fn.name] = &fn;
    }
    for (const auto& fn : file.functions) {
      const auto old_fn = old_fns.find(fn.name);
      if (old_fn == old_fns.end()) {
        note(file.path, fn.name, FunctionChange::kAdded);
        continue;
      }
      note(file.path, fn.name,
           fn.token_hash == old_fn->second->token_hash ? FunctionChange::kUnchanged
                                                       : FunctionChange::kModified);
      old_fns.erase(old_fn);
    }
    for (const auto& [name, fn] : old_fns) {
      (void)fn;
      note(file.path, name, FunctionChange::kDeleted);
    }
  }
  // Files present only in the old version, in their original order.
  for (const auto& file : old_version) {
    if (old_by_path.count(file.path) == 0) {
      continue;
    }
    if (file.functions.empty()) {
      note(file.path, "", FunctionChange::kDeleted);
    }
    for (const auto& fn : file.functions) {
      note(file.path, fn.name, FunctionChange::kDeleted);
    }
  }
  return plan;
}

DiffPlan PlanFunctionDiff(const std::vector<metrics::SourceFile>& old_files,
                          const std::vector<metrics::SourceFile>& new_files) {
  std::vector<FileFunctionIndex> old_index;
  old_index.reserve(old_files.size());
  for (const auto& file : old_files) {
    old_index.push_back(IndexFunctions(file));
  }
  std::vector<FileFunctionIndex> new_index;
  new_index.reserve(new_files.size());
  for (const auto& file : new_files) {
    new_index.push_back(IndexFunctions(file));
  }
  return PlanFunctionDiff(old_index, new_index);
}

std::shared_ptr<const ParsedFile> AstCache::Get(
    const metrics::SourceFile& file, std::optional<metrics::FeatureVector>* row) const {
  uint64_t key = Fnv1a64(file.path);
  key = (key ^ static_cast<uint64_t>(file.language)) * 0x100000001b3ULL;
  key = Fnv1a64(file.text, key);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  auto parsed = std::make_shared<ParsedFile>();
  if (file.language == metrics::Language::kMiniC) {
    // One front-end pass feeds every product; its tokens die here.
    const lang::FrontEnd front = lang::RunFrontEnd(file.text);
    parsed->index = IndexFromTokens(
        file, front.lexed.has_value() ? &front.lexed->tokens : nullptr, front.unit.get());
    if (row != nullptr) {
      row->emplace(metrics::FileFeaturesFromFrontEnd(file, front));
    }
    parsed->unit = front.unit;
    parsed->module = front.module;
  } else {
    parsed->index = IndexFunctions(file);
    if (row != nullptr) {
      row->emplace(metrics::ExtractFileFeatures(file));
    }
  }
  std::shared_ptr<const ParsedFile> shared = std::move(parsed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (entries_.emplace(key, shared).second) {
      order_.push_back(key);
      while (entries_.size() > max_entries_ && !order_.empty()) {
        entries_.erase(order_.front());
        order_.pop_front();
      }
    }
  }
  return shared;
}

namespace {

// The counters of a symexec payload row, in slot order.
constexpr uint64_t symx::SymExecResult::*kSymexCounters[] = {
    &symx::SymExecResult::paths_explored,   &symx::SymExecResult::paths_completed,
    &symx::SymExecResult::solver_queries,   &symx::SymExecResult::range_pruned,
    &symx::SymExecResult::sat_conflicts,    &symx::SymExecResult::model_reuse_hits,
    &symx::SymExecResult::simplifier_folds};
constexpr size_t kSymexHeader = std::size(kSymexCounters) + 1;  // Counters + vuln count.

}  // namespace

std::vector<double> EncodeSymexRow(const symx::SymExecResult& result) {
  std::vector<double> row;
  for (const auto counter : kSymexCounters) {
    row.push_back(static_cast<double>(result.*counter));
  }
  row.push_back(static_cast<double>(result.vulns.size()));
  for (const auto& vuln : result.vulns) {
    row.push_back(static_cast<double>(vuln.kind));
    row.push_back(vuln.exploit_fraction);
  }
  return row;
}

bool DecodeSymexRow(const std::vector<double>& row, symx::SymExecResult* result) {
  // The stored count is checked against the size, never used as a bound.
  if (row.size() < kSymexHeader || (row.size() - kSymexHeader) % 2 != 0 ||
      row[kSymexHeader - 1] != static_cast<double>((row.size() - kSymexHeader) / 2)) {
    return false;
  }
  symx::SymExecResult decoded;
  for (size_t slot = 0; slot + 1 < kSymexHeader; ++slot) {
    if (!(row[slot] >= 0.0 && row[slot] < 0x1p64)) {
      return false;  // Converting it to uint64_t would be undefined.
    }
    decoded.*kSymexCounters[slot] = static_cast<uint64_t>(row[slot]);
  }
  for (size_t slot = kSymexHeader; slot < row.size(); slot += 2) {
    const double kind = row[slot];
    if (kind != static_cast<double>(symx::VulnKind::kOutOfBounds) &&
        kind != static_cast<double>(symx::VulnKind::kDivByZero)) {
      return false;
    }
    symx::VulnSite vuln;
    vuln.kind = static_cast<symx::VulnKind>(kind);
    vuln.exploit_fraction = row[slot + 1];
    decoded.vulns.push_back(std::move(vuln));
  }
  *result = std::move(decoded);
  return true;
}

}  // namespace clair
