#include "src/lang/frontend.h"

#include <utility>

#include "src/lang/parser.h"

namespace lang {

FrontEnd RunFrontEnd(std::string_view source) {
  FrontEnd out;
  auto lexed = Lex(source);
  if (!lexed.ok()) {
    return out;
  }
  out.lexed.emplace(std::move(lexed).value());
  auto unit = ParseTokens(source, out.lexed->tokens);
  if (!unit.ok()) {
    return out;
  }
  out.unit = std::make_shared<const TranslationUnit>(std::move(unit).value());
  auto module = LowerToIr(*out.unit);
  if (module.ok()) {
    out.module = std::make_shared<const IrModule>(std::move(module).value());
  }
  return out;
}

}  // namespace lang
