// One front-end pass over a MiniC source: one lex, one parse of those
// tokens and one lowering of that unit. Consumers that need more than one
// product of the same file version (Halstead counts, the function index,
// the AST, the IR) read them all from one pass instead of re-running the
// front end per product.
#ifndef SRC_LANG_FRONTEND_H_
#define SRC_LANG_FRONTEND_H_

#include <memory>
#include <optional>
#include <string_view>

#include "src/lang/ast.h"
#include "src/lang/ir.h"
#include "src/lang/lexer.h"

namespace lang {

// Each product is empty when its stage or an earlier one failed. `unit` and
// `module` are shared so a cache can keep them after the tokens are gone.
struct FrontEnd {
  std::optional<LexOutput> lexed;
  std::shared_ptr<const TranslationUnit> unit;
  std::shared_ptr<const IrModule> module;
};

// Lex, then ParseTokens, then LowerToIr: the same products, fault verdicts
// included, as Lex(source), Parse(source) and LowerToIr of that unit.
FrontEnd RunFrontEnd(std::string_view source);

}  // namespace lang

#endif  // SRC_LANG_FRONTEND_H_
