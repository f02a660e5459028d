#include "src/metrics/extract.h"

#include <algorithm>
#include <array>
#include <map>

#include "src/metrics/callgraph.h"
#include "src/metrics/complexity.h"
#include "src/metrics/smells.h"
#include "src/support/strings.h"

namespace metrics {
namespace {

void AddLineFeatures(FeatureVector& fv, const LineCount& lines) {
  fv.Add("loc.code", static_cast<double>(lines.code));
  fv.Add("loc.comment", static_cast<double>(lines.comment));
  fv.Add("loc.blank", static_cast<double>(lines.blank));
  fv.Add("loc.total", static_cast<double>(lines.total()));
}

// Counts statements of each kind (declaration/branch counts for the Shin
// feature family).
struct StmtCounts {
  long long declarations = 0;
  long long branches = 0;
  long long loops = 0;
  long long returns = 0;
  long long statements = 0;
};

void CountStmts(const std::vector<std::unique_ptr<lang::Stmt>>& body, StmtCounts& counts);

void CountStmt(const lang::Stmt& stmt, StmtCounts& counts) {
  ++counts.statements;
  switch (stmt.kind) {
    case lang::StmtKind::kVarDecl:
      ++counts.declarations;
      break;
    case lang::StmtKind::kIf:
      ++counts.branches;
      CountStmts(stmt.then_body, counts);
      CountStmts(stmt.else_body, counts);
      break;
    case lang::StmtKind::kWhile:
    case lang::StmtKind::kFor:
      ++counts.loops;
      if (stmt.init_stmt) {
        CountStmt(*stmt.init_stmt, counts);
      }
      CountStmts(stmt.then_body, counts);
      break;
    case lang::StmtKind::kSwitch:
      counts.branches += static_cast<long long>(stmt.cases.size());
      for (const auto& sc : stmt.cases) {
        CountStmts(sc.body, counts);
      }
      break;
    case lang::StmtKind::kReturn:
      ++counts.returns;
      break;
    case lang::StmtKind::kBlock:
      CountStmts(stmt.block, counts);
      break;
    default:
      break;
  }
}

void CountStmts(const std::vector<std::unique_ptr<lang::Stmt>>& body, StmtCounts& counts) {
  for (const auto& stmt : body) {
    CountStmt(*stmt, counts);
  }
}

// Text-level declaration heuristics for languages without a frontend:
// counts lines that look like function/method definitions.
long long HeuristicFunctionCount(std::string_view text, Language lang) {
  long long count = 0;
  size_t start = 0;
  auto next_line = [&](std::string_view& line) {
    if (start >= text.size()) {
      return false;
    }
    size_t end = text.find('\n', start);
    if (end == std::string_view::npos) {
      end = text.size();
    }
    line = text.substr(start, end - start);
    start = end + 1;
    return true;
  };
  std::string_view line;
  while (next_line(line)) {
    const auto trimmed = support::Trim(line);
    if (lang == Language::kPython) {
      if (support::StartsWith(trimmed, "def ")) {
        ++count;
      }
    } else {
      // C/C++/Java: a line ending in ") {" whose first token looks like a
      // type or qualifier. Deliberately rough — mirrors regex-based tools.
      if (support::EndsWith(trimmed, "{") && trimmed.find('(') != std::string_view::npos &&
          trimmed.find(')') != std::string_view::npos &&
          !support::StartsWith(trimmed, "if") && !support::StartsWith(trimmed, "for") &&
          !support::StartsWith(trimmed, "while") && !support::StartsWith(trimmed, "switch")) {
        ++count;
      }
    }
  }
  return count;
}

}  // namespace

FeatureVector ShinFeatures(const lang::TranslationUnit& unit, const lang::IrModule& module) {
  FeatureVector fv;
  fv.Set("shin.functions", static_cast<double>(unit.functions.size()));
  fv.Set("shin.globals", static_cast<double>(unit.globals.size()));
  StmtCounts counts;
  long long total_params = 0;
  long long value_returning = 0;
  for (const auto& fn : unit.functions) {
    CountStmts(fn.body, counts);
    total_params += static_cast<long long>(fn.params.size());
    if (fn.return_type.base != lang::BaseType::kVoid) {
      ++value_returning;
    }
  }
  fv.Set("shin.declarations", static_cast<double>(counts.declarations));
  fv.Set("shin.branches", static_cast<double>(counts.branches));
  fv.Set("shin.loops", static_cast<double>(counts.loops));
  fv.Set("shin.returns", static_cast<double>(counts.returns));
  fv.Set("shin.statements", static_cast<double>(counts.statements));
  fv.Set("shin.input_args", static_cast<double>(total_params));
  fv.Set("shin.output_args", static_cast<double>(value_returning));
  // MiniC has no preprocessor; preprocessed lines == statements is the
  // closest analogue and keeps the feature family complete.
  fv.Set("shin.preprocessed_lines", static_cast<double>(counts.statements));
  // Register pressure as a declaration-density proxy.
  long long regs = 0;
  for (const auto& fn : module.functions) {
    regs += fn.reg_count;
  }
  fv.Set("shin.virtual_regs", static_cast<double>(regs));
  return fv;
}

const std::vector<std::string>& FunctionFeatureNames() {
  static const std::vector<std::string> kNames = {
      "fn.lines",
      "fn.params",
      "fn.returns_value",
      "fn.statements",
      "fn.declarations",
      "fn.branches",
      "fn.loops",
      "fn.return_stmts",
      "fn.mccabe",
      "fn.decision_points",
      "fn.max_nesting",
      "fn.virtual_regs",
      "cg.fan_in",
      "cg.fan_out",
      "cg.call_sites",
      "cg.recursive",
      "sig.unchecked_input_index",
      "sig.non_constant_divisor",
      "sig.constant_condition",
      "sig.dead_store",
      "sig.unreachable_code",
      "sig.infinite_loop_risk",
      "sig.signed_overflow_risk",
      "proc.touches",
      "proc.age_days",
      "proc.days_since_change",
      "proc.lines_added",
      "proc.lines_deleted",
  };
  return kNames;
}

std::vector<FunctionFeatures> ExtractFunctionFeatures(
    const lang::TranslationUnit& unit, const lang::IrModule& module,
    const std::map<std::string, ProcessMetrics>* process) {
  // Column indices, kept in lockstep with FunctionFeatureNames().
  enum Column : size_t {
    kLines = 0,
    kParams,
    kReturnsValue,
    kStatements,
    kDeclarations,
    kBranches,
    kLoops,
    kReturnStmts,
    kMccabe,
    kDecisionPoints,
    kMaxNesting,
    kVirtualRegs,
    kFanIn,
    kFanOut,
    kCallSites,
    kRecursive,
    kSigFirst,              // BugSignal::Kind columns follow in enum order.
    kProcFirst = kSigFirst + 7,  // proc.* columns follow the 7 signal kinds.
  };
  const size_t width = FunctionFeatureNames().size();

  std::map<std::string, const lang::IrFunction*> ir_by_name;
  for (const auto& fn : module.functions) {
    ir_by_name.emplace(fn.name, &fn);
  }
  std::map<std::string, std::array<double, 7>> signal_counts;
  for (const auto& signal : FindBugSignals(module)) {
    signal_counts[signal.function][static_cast<size_t>(signal.kind)] += 1.0;
  }
  const CallGraph graph(module);

  std::vector<FunctionFeatures> out;
  out.reserve(unit.functions.size());
  for (const auto& fn : unit.functions) {
    FunctionFeatures row;
    row.name = fn.name;
    row.values.assign(width, 0.0);
    row.values[kLines] = static_cast<double>(fn.end_line - fn.line + 1);
    row.values[kParams] = static_cast<double>(fn.params.size());
    row.values[kReturnsValue] = fn.return_type.base != lang::BaseType::kVoid ? 1.0 : 0.0;
    StmtCounts counts;
    CountStmts(fn.body, counts);
    row.values[kStatements] = static_cast<double>(counts.statements);
    row.values[kDeclarations] = static_cast<double>(counts.declarations);
    row.values[kBranches] = static_cast<double>(counts.branches);
    row.values[kLoops] = static_cast<double>(counts.loops);
    row.values[kReturnStmts] = static_cast<double>(counts.returns);
    row.values[kDecisionPoints] = static_cast<double>(DecisionPoints(fn));
    row.values[kMaxNesting] = static_cast<double>(MaxNestingDepth(fn));
    const auto ir = ir_by_name.find(fn.name);
    if (ir != ir_by_name.end()) {
      row.values[kMccabe] = static_cast<double>(CyclomaticComplexity(*ir->second));
      row.values[kVirtualRegs] = static_cast<double>(ir->second->reg_count);
    }
    row.values[kFanIn] = static_cast<double>(graph.FanIn(fn.name));
    row.values[kFanOut] = static_cast<double>(graph.FanOut(fn.name));
    row.values[kCallSites] = static_cast<double>(graph.CallSites(fn.name));
    row.values[kRecursive] = graph.IsRecursive(fn.name) ? 1.0 : 0.0;
    const auto signals = signal_counts.find(fn.name);
    if (signals != signal_counts.end()) {
      for (size_t k = 0; k < signals->second.size(); ++k) {
        row.values[kSigFirst + k] = signals->second[k];
      }
    }
    if (process != nullptr) {
      const auto proc = process->find(fn.name);
      if (proc != process->end()) {
        row.values[kProcFirst + 0] = proc->second.touches;
        row.values[kProcFirst + 1] = proc->second.age_days;
        row.values[kProcFirst + 2] = proc->second.days_since_change;
        row.values[kProcFirst + 3] = proc->second.lines_added;
        row.values[kProcFirst + 4] = proc->second.lines_deleted;
      }
    }
    out.push_back(std::move(row));
  }
  return out;
}

namespace {

// The features every file gets: line classes and the language tally.
FeatureVector TextFeatures(const SourceFile& file) {
  FeatureVector fv;
  AddLineFeatures(fv, CountLines(file.text, file.language));
  fv.Add(std::string("lang.") + support::ToLower(LanguageName(file.language)) + ".files", 1.0);
  return fv;
}

}  // namespace

FeatureVector ExtractFileFeatures(const SourceFile& file) {
  if (file.language != Language::kMiniC) {
    FeatureVector fv = TextFeatures(file);
    fv.Set("shin.functions", static_cast<double>(HeuristicFunctionCount(file.text,
                                                                        file.language)));
    return fv;
  }
  return FileFeaturesFromFrontEnd(file, lang::RunFrontEnd(file.text));
}

FeatureVector FileFeaturesFromFrontEnd(const SourceFile& file, const lang::FrontEnd& front) {
  FeatureVector fv = TextFeatures(file);
  if (!front.lexed.has_value()) {
    fv.Set("parse.failed", 1.0);
    return fv;
  }
  const auto halstead = ComputeHalstead(front.lexed->tokens);
  fv.Set("halstead.vocabulary", halstead.vocabulary);
  fv.Set("halstead.length", halstead.length);
  fv.Set("halstead.volume", halstead.volume);
  fv.Set("halstead.difficulty", halstead.difficulty);
  fv.Set("halstead.effort", halstead.effort);
  fv.Set("halstead.estimated_bugs", halstead.estimated_bugs);
  if (front.module == nullptr) {  // Failed to parse or to lower.
    fv.Set("parse.failed", 1.0);
    return fv;
  }
  const lang::TranslationUnit& unit = *front.unit;
  const lang::IrModule& module = *front.module;

  fv.MergeSum(ShinFeatures(unit, module));

  // Cyclomatic complexity: total plus per-function max/mean.
  long long total_mccabe = 0;
  int max_mccabe = 0;
  for (const auto& fn : module.functions) {
    const int m = CyclomaticComplexity(fn);
    total_mccabe += m;
    max_mccabe = std::max(max_mccabe, m);
  }
  fv.Set("mccabe.total", static_cast<double>(total_mccabe));
  fv.Set("mccabe.max", static_cast<double>(max_mccabe));
  if (!module.functions.empty()) {
    fv.Set("mccabe.mean", static_cast<double>(total_mccabe) /
                              static_cast<double>(module.functions.size()));
  }
  int max_nesting = 0;
  for (const auto& fn : unit.functions) {
    max_nesting = std::max(max_nesting, MaxNestingDepth(fn));
  }
  fv.Set("nesting.max", static_cast<double>(max_nesting));

  const auto smells = DetectSmells(unit);
  fv.Set("smell.long_methods", static_cast<double>(smells.long_methods));
  fv.Set("smell.long_param_lists", static_cast<double>(smells.long_param_lists));
  fv.Set("smell.deeply_nested", static_cast<double>(smells.deeply_nested));
  fv.Set("smell.god_functions", static_cast<double>(smells.god_functions));
  fv.Set("smell.magic_numbers", static_cast<double>(smells.magic_numbers));
  fv.Set("smell.total", static_cast<double>(smells.Total()));

  const auto signals = FindBugSignals(module);
  fv.Set("lint.total", static_cast<double>(signals.size()));
  for (const auto& signal : signals) {
    fv.Add(std::string("lint.") + BugSignalKindName(signal.kind), 1.0);
  }

  const CallGraph graph(module);
  long long fan_out_sum = 0;
  int fan_out_max = 0;
  long long recursive = 0;
  for (const auto& fn : module.functions) {
    const int fo = graph.FanOut(fn.name);
    fan_out_sum += fo;
    fan_out_max = std::max(fan_out_max, fo);
    if (graph.IsRecursive(fn.name)) {
      ++recursive;
    }
  }
  fv.Set("callgraph.fan_out_sum", static_cast<double>(fan_out_sum));
  fv.Set("callgraph.fan_out_max", static_cast<double>(fan_out_max));
  fv.Set("callgraph.recursive_functions", static_cast<double>(recursive));
  fv.Set("callgraph.roots", static_cast<double>(graph.Roots().size()));
  return fv;
}

FeatureVector ExtractAppFeatures(const std::vector<SourceFile>& files) {
  return AppFeaturesFromFiles(files, ExtractFileFeatures);
}

FeatureVector AppFeaturesFromFiles(
    const std::vector<SourceFile>& files,
    const std::function<FeatureVector(const SourceFile&)>& file_row) {
  FeatureVector app;
  for (const auto& file : files) {
    app.MergeSum(file_row(file));
  }
  app.Set("app.files", static_cast<double>(files.size()));
  const double code = app.Get("loc.code");
  const double comment = app.Get("loc.comment");
  if (code > 0.0) {
    app.Set("loc.comment_ratio", comment / code);
  }
  return app;
}

}  // namespace metrics
