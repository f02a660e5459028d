// MiniC recursive-descent parser.
//
// Grammar sketch (EBNF):
//   unit        := (global | function)*
//   global      := type ident ("=" int-literal)? ";"
//   function    := type ident "(" params? ")" block
//   params      := type ident ("," type ident)*
//   type        := ("int" | "char" | "bool" | "void") ("[" int-literal "]")?
//   block       := "{" stmt* "}"
//   stmt        := block | if | while | for | switch | return | break ";"
//                | continue ";" | vardecl ";" | expr ";"
//   if          := "if" "(" expr ")" stmt ("else" stmt)?
//   while       := "while" "(" expr ")" stmt
//   for         := "for" "(" (vardecl | expr)? ";" expr? ";" expr? ")" stmt
//   switch      := "switch" "(" expr ")" "{" case* "}"
//   case        := ("case" int-literal | "default") ":" stmt*
//   expr        := assignment
//   assignment  := conditional (("=" | "+=" | "-=") assignment)?
//   conditional := logical_or ("?" expr ":" conditional)?
//   ... standard C precedence down to unary and postfix (call, index) ...
#ifndef SRC_LANG_PARSER_H_
#define SRC_LANG_PARSER_H_

#include <string_view>
#include <vector>

#include "src/lang/ast.h"
#include "src/lang/token.h"
#include "src/support/result.h"

namespace lang {

// Lexes and parses a full translation unit.
support::Result<TranslationUnit> Parse(std::string_view source);

// Parses `tokens`, the successful Lex(source) of `source`, without lexing
// again; read by reference, never copied. Same result as Parse(source) for
// a source that lexes: the parse fault site is still keyed by `source`.
support::Result<TranslationUnit> ParseTokens(std::string_view source,
                                             const std::vector<Token>& tokens);

}  // namespace lang

#endif  // SRC_LANG_PARSER_H_
