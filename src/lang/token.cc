#include "src/lang/token.h"

namespace lang {

const char* TokenKindName(TokenKind kind) {
  switch (kind) {
    case TokenKind::kEof:
      return "<eof>";
    case TokenKind::kIntLiteral:
      return "int-literal";
    case TokenKind::kCharLiteral:
      return "char-literal";
    case TokenKind::kStringLiteral:
      return "string-literal";
    case TokenKind::kIdentifier:
      return "identifier";
    case TokenKind::kKwInt:
      return "int";
    case TokenKind::kKwChar:
      return "char";
    case TokenKind::kKwBool:
      return "bool";
    case TokenKind::kKwVoid:
      return "void";
    case TokenKind::kKwIf:
      return "if";
    case TokenKind::kKwElse:
      return "else";
    case TokenKind::kKwWhile:
      return "while";
    case TokenKind::kKwFor:
      return "for";
    case TokenKind::kKwReturn:
      return "return";
    case TokenKind::kKwBreak:
      return "break";
    case TokenKind::kKwContinue:
      return "continue";
    case TokenKind::kKwSwitch:
      return "switch";
    case TokenKind::kKwCase:
      return "case";
    case TokenKind::kKwDefault:
      return "default";
    case TokenKind::kKwTrue:
      return "true";
    case TokenKind::kKwFalse:
      return "false";
    case TokenKind::kLParen:
      return "(";
    case TokenKind::kRParen:
      return ")";
    case TokenKind::kLBrace:
      return "{";
    case TokenKind::kRBrace:
      return "}";
    case TokenKind::kLBracket:
      return "[";
    case TokenKind::kRBracket:
      return "]";
    case TokenKind::kComma:
      return ",";
    case TokenKind::kSemicolon:
      return ";";
    case TokenKind::kColon:
      return ":";
    case TokenKind::kPlus:
      return "+";
    case TokenKind::kMinus:
      return "-";
    case TokenKind::kStar:
      return "*";
    case TokenKind::kSlash:
      return "/";
    case TokenKind::kPercent:
      return "%";
    case TokenKind::kAssign:
      return "=";
    case TokenKind::kPlusAssign:
      return "+=";
    case TokenKind::kMinusAssign:
      return "-=";
    case TokenKind::kEq:
      return "==";
    case TokenKind::kNe:
      return "!=";
    case TokenKind::kLt:
      return "<";
    case TokenKind::kLe:
      return "<=";
    case TokenKind::kGt:
      return ">";
    case TokenKind::kGe:
      return ">=";
    case TokenKind::kAmpAmp:
      return "&&";
    case TokenKind::kPipePipe:
      return "||";
    case TokenKind::kBang:
      return "!";
    case TokenKind::kAmp:
      return "&";
    case TokenKind::kPipe:
      return "|";
    case TokenKind::kCaret:
      return "^";
    case TokenKind::kTilde:
      return "~";
    case TokenKind::kShl:
      return "<<";
    case TokenKind::kShr:
      return ">>";
    case TokenKind::kQuestion:
      return "?";
    case TokenKind::kPlusPlus:
      return "++";
    case TokenKind::kMinusMinus:
      return "--";
  }
  return "<bad>";
}

bool IsOperatorToken(TokenKind kind) {
  switch (kind) {
    case TokenKind::kPlus:
    case TokenKind::kMinus:
    case TokenKind::kStar:
    case TokenKind::kSlash:
    case TokenKind::kPercent:
    case TokenKind::kAssign:
    case TokenKind::kPlusAssign:
    case TokenKind::kMinusAssign:
    case TokenKind::kEq:
    case TokenKind::kNe:
    case TokenKind::kLt:
    case TokenKind::kLe:
    case TokenKind::kGt:
    case TokenKind::kGe:
    case TokenKind::kAmpAmp:
    case TokenKind::kPipePipe:
    case TokenKind::kBang:
    case TokenKind::kAmp:
    case TokenKind::kPipe:
    case TokenKind::kCaret:
    case TokenKind::kTilde:
    case TokenKind::kShl:
    case TokenKind::kShr:
    case TokenKind::kQuestion:
    case TokenKind::kPlusPlus:
    case TokenKind::kMinusMinus:
    case TokenKind::kLBracket:
      return true;
    default:
      return IsKeywordToken(kind) && kind != TokenKind::kKwTrue && kind != TokenKind::kKwFalse;
  }
}

bool IsOperandToken(TokenKind kind) {
  switch (kind) {
    case TokenKind::kIntLiteral:
    case TokenKind::kCharLiteral:
    case TokenKind::kStringLiteral:
    case TokenKind::kIdentifier:
    case TokenKind::kKwTrue:
    case TokenKind::kKwFalse:
      return true;
    default:
      return false;
  }
}

bool IsKeywordToken(TokenKind kind) {
  switch (kind) {
    case TokenKind::kKwInt:
    case TokenKind::kKwChar:
    case TokenKind::kKwBool:
    case TokenKind::kKwVoid:
    case TokenKind::kKwIf:
    case TokenKind::kKwElse:
    case TokenKind::kKwWhile:
    case TokenKind::kKwFor:
    case TokenKind::kKwReturn:
    case TokenKind::kKwBreak:
    case TokenKind::kKwContinue:
    case TokenKind::kKwSwitch:
    case TokenKind::kKwCase:
    case TokenKind::kKwDefault:
    case TokenKind::kKwTrue:
    case TokenKind::kKwFalse:
      return true;
    default:
      return false;
  }
}

// A switch on the length, then one comparison per candidate keyword.
TokenKind ClassifyIdentifier(std::string_view text) {
  const auto is = [&text](std::string_view keyword, TokenKind kind) {
    return text == keyword ? kind : TokenKind::kIdentifier;
  };
  switch (text.size()) {
    case 2:
      return is("if", TokenKind::kKwIf);
    case 3:
      return text[0] == 'i' ? is("int", TokenKind::kKwInt) : is("for", TokenKind::kKwFor);
    case 4:
      switch (text[0]) {
        case 'c':
          return text[1] == 'h' ? is("char", TokenKind::kKwChar) : is("case", TokenKind::kKwCase);
        case 'b':
          return is("bool", TokenKind::kKwBool);
        case 'v':
          return is("void", TokenKind::kKwVoid);
        case 'e':
          return is("else", TokenKind::kKwElse);
        case 't':
          return is("true", TokenKind::kKwTrue);
        default:
          return TokenKind::kIdentifier;
      }
    case 5:
      switch (text[0]) {
        case 'w':
          return is("while", TokenKind::kKwWhile);
        case 'b':
          return is("break", TokenKind::kKwBreak);
        case 'f':
          return is("false", TokenKind::kKwFalse);
        default:
          return TokenKind::kIdentifier;
      }
    case 6:
      return text[0] == 'r' ? is("return", TokenKind::kKwReturn)
                            : is("switch", TokenKind::kKwSwitch);
    case 7:
      return is("default", TokenKind::kKwDefault);
    case 8:
      return is("continue", TokenKind::kKwContinue);
    default:
      return TokenKind::kIdentifier;
  }
}

}  // namespace lang
