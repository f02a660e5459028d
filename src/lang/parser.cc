#include "src/lang/parser.h"

#include <utility>

#include "src/lang/lexer.h"
#include "src/support/fault_injection.h"
#include "src/support/strings.h"

namespace lang {
namespace {

using support::Error;

class Parser {
 public:
  // `tokens` must end in a kEof token, as Lex's output does.
  explicit Parser(const std::vector<Token>& tokens) : tokens_(tokens) {}

  support::Result<TranslationUnit> Run() {
    TranslationUnit unit;
    while (!Check(TokenKind::kEof)) {
      if (!ParseTopLevel(unit)) {
        return Error(Error::Code::kParseError, error_);
      }
    }
    return unit;
  }

 private:
  // --- Token cursor ---------------------------------------------------------

  const Token& Peek(size_t ahead = 0) const {
    const size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }

  const Token& Advance() {
    const Token& tok = Peek();
    if (pos_ + 1 < tokens_.size()) {
      ++pos_;
    }
    return tok;
  }

  bool Check(TokenKind kind) const { return Peek().kind == kind; }

  bool Match(TokenKind kind) {
    if (Check(kind)) {
      Advance();
      return true;
    }
    return false;
  }

  bool Expect(TokenKind kind, const char* context) {
    if (Match(kind)) {
      return true;
    }
    Fail(support::Format("expected '%s' %s, got '%s'", TokenKindName(kind), context,
                         TokenKindName(Peek().kind)));
    return false;
  }

  bool Fail(const std::string& message) {
    if (error_.empty()) {
      error_ = support::Format("line %d: %s", Peek().line, message.c_str());
    }
    return false;
  }

  // --- Declarations ---------------------------------------------------------

  static bool IsTypeKeyword(TokenKind kind) {
    return kind == TokenKind::kKwInt || kind == TokenKind::kKwChar ||
           kind == TokenKind::kKwBool || kind == TokenKind::kKwVoid;
  }

  bool ParseBaseType(BaseType& out) {
    switch (Peek().kind) {
      case TokenKind::kKwInt:
        out = BaseType::kInt;
        break;
      case TokenKind::kKwChar:
        out = BaseType::kChar;
        break;
      case TokenKind::kKwBool:
        out = BaseType::kBool;
        break;
      case TokenKind::kKwVoid:
        out = BaseType::kVoid;
        break;
      default:
        return Fail("expected a type name");
    }
    Advance();
    return true;
  }

  bool ParseTopLevel(TranslationUnit& unit) {
    BaseType base;
    if (!ParseBaseType(base)) {
      return false;
    }
    if (!Check(TokenKind::kIdentifier)) {
      return Fail("expected an identifier after type");
    }
    const Token name_tok = Advance();
    if (Check(TokenKind::kLParen)) {
      return ParseFunctionRest(unit, base, name_tok);
    }
    return ParseGlobalRest(unit, base, name_tok);
  }

  bool ParseGlobalRest(TranslationUnit& unit, BaseType base, const Token& name_tok) {
    GlobalDecl global;
    global.name = name_tok.text;
    global.type.base = base;
    global.line = name_tok.line;
    if (Match(TokenKind::kLBracket)) {
      if (!Check(TokenKind::kIntLiteral)) {
        return Fail("expected array size");
      }
      global.type.is_array = true;
      global.type.array_size = Advance().int_value;
      if (!Expect(TokenKind::kRBracket, "after array size")) {
        return false;
      }
    }
    if (Match(TokenKind::kAssign)) {
      bool negative = Match(TokenKind::kMinus);
      if (!Check(TokenKind::kIntLiteral) && !Check(TokenKind::kCharLiteral) &&
          !Check(TokenKind::kKwTrue) && !Check(TokenKind::kKwFalse)) {
        return Fail("global initializers must be constant literals");
      }
      global.init_value = Advance().int_value;
      if (negative) {
        global.init_value = -global.init_value;
      }
    }
    if (!Expect(TokenKind::kSemicolon, "after global declaration")) {
      return false;
    }
    unit.globals.push_back(std::move(global));
    return true;
  }

  bool ParseFunctionRest(TranslationUnit& unit, BaseType base, const Token& name_tok) {
    FunctionDecl fn;
    fn.name = name_tok.text;
    fn.return_type.base = base;
    fn.line = name_tok.line;
    Advance();  // '('
    if (!Check(TokenKind::kRParen)) {
      do {
        ParamDecl param;
        if (!ParseBaseType(param.type.base)) {
          return false;
        }
        if (!Check(TokenKind::kIdentifier)) {
          return Fail("expected parameter name");
        }
        param.name = Advance().text;
        if (Match(TokenKind::kLBracket)) {
          if (!Check(TokenKind::kIntLiteral)) {
            return Fail("expected array size in parameter");
          }
          param.type.is_array = true;
          param.type.array_size = Advance().int_value;
          if (!Expect(TokenKind::kRBracket, "after array size")) {
            return false;
          }
        }
        fn.params.push_back(std::move(param));
      } while (Match(TokenKind::kComma));
    }
    if (!Expect(TokenKind::kRParen, "after parameter list")) {
      return false;
    }
    if (!Expect(TokenKind::kLBrace, "to open function body")) {
      return false;
    }
    if (!ParseStmtListUntilBrace(fn.body)) {
      return false;
    }
    fn.end_line = Peek().line;
    if (!Expect(TokenKind::kRBrace, "to close function body")) {
      return false;
    }
    unit.functions.push_back(std::move(fn));
    return true;
  }

  // --- Statements -----------------------------------------------------------

  bool ParseStmtListUntilBrace(std::vector<std::unique_ptr<Stmt>>& out) {
    while (!Check(TokenKind::kRBrace) && !Check(TokenKind::kEof)) {
      auto stmt = ParseStmt();
      if (!stmt) {
        return false;
      }
      out.push_back(std::move(stmt));
    }
    return true;
  }

  std::unique_ptr<Stmt> ParseStmt() {
    const int line = Peek().line;
    if (Check(TokenKind::kLBrace)) {
      return ParseBlock();
    }
    if (Check(TokenKind::kKwIf)) {
      return ParseIf();
    }
    if (Check(TokenKind::kKwWhile)) {
      return ParseWhile();
    }
    if (Check(TokenKind::kKwFor)) {
      return ParseFor();
    }
    if (Check(TokenKind::kKwSwitch)) {
      return ParseSwitch();
    }
    if (Match(TokenKind::kKwReturn)) {
      auto stmt = NewStmt(StmtKind::kReturn, line);
      if (!Check(TokenKind::kSemicolon)) {
        stmt->expr = ParseExpr();
        if (!stmt->expr) {
          return nullptr;
        }
      }
      if (!Expect(TokenKind::kSemicolon, "after return")) {
        return nullptr;
      }
      return stmt;
    }
    if (Match(TokenKind::kKwBreak)) {
      auto stmt = NewStmt(StmtKind::kBreak, line);
      if (!Expect(TokenKind::kSemicolon, "after break")) {
        return nullptr;
      }
      return stmt;
    }
    if (Match(TokenKind::kKwContinue)) {
      auto stmt = NewStmt(StmtKind::kContinue, line);
      if (!Expect(TokenKind::kSemicolon, "after continue")) {
        return nullptr;
      }
      return stmt;
    }
    if (IsTypeKeyword(Peek().kind)) {
      auto stmt = ParseVarDecl();
      if (!stmt || !Expect(TokenKind::kSemicolon, "after declaration")) {
        return nullptr;
      }
      return stmt;
    }
    auto stmt = NewStmt(StmtKind::kExpr, line);
    stmt->expr = ParseExpr();
    if (!stmt->expr || !Expect(TokenKind::kSemicolon, "after expression")) {
      return nullptr;
    }
    return stmt;
  }

  std::unique_ptr<Stmt> ParseBlock() {
    auto stmt = NewStmt(StmtKind::kBlock, Peek().line);
    Advance();  // '{'
    if (!ParseStmtListUntilBrace(stmt->block)) {
      return nullptr;
    }
    if (!Expect(TokenKind::kRBrace, "to close block")) {
      return nullptr;
    }
    return stmt;
  }

  std::unique_ptr<Stmt> ParseVarDecl() {
    auto stmt = NewStmt(StmtKind::kVarDecl, Peek().line);
    if (!ParseBaseType(stmt->decl_type.base)) {
      return nullptr;
    }
    if (!Check(TokenKind::kIdentifier)) {
      Fail("expected variable name");
      return nullptr;
    }
    stmt->decl_name = Advance().text;
    if (Match(TokenKind::kLBracket)) {
      if (!Check(TokenKind::kIntLiteral)) {
        Fail("expected array size");
        return nullptr;
      }
      stmt->decl_type.is_array = true;
      stmt->decl_type.array_size = Advance().int_value;
      if (!Expect(TokenKind::kRBracket, "after array size")) {
        return nullptr;
      }
    }
    if (Match(TokenKind::kAssign)) {
      stmt->decl_init = ParseExpr();
      if (!stmt->decl_init) {
        return nullptr;
      }
    }
    return stmt;
  }

  std::unique_ptr<Stmt> ParseIf() {
    auto stmt = NewStmt(StmtKind::kIf, Peek().line);
    Advance();  // 'if'
    if (!Expect(TokenKind::kLParen, "after if")) {
      return nullptr;
    }
    stmt->expr = ParseExpr();
    if (!stmt->expr || !Expect(TokenKind::kRParen, "after condition")) {
      return nullptr;
    }
    auto then_stmt = ParseStmt();
    if (!then_stmt) {
      return nullptr;
    }
    stmt->then_body.push_back(std::move(then_stmt));
    if (Match(TokenKind::kKwElse)) {
      auto else_stmt = ParseStmt();
      if (!else_stmt) {
        return nullptr;
      }
      stmt->else_body.push_back(std::move(else_stmt));
    }
    return stmt;
  }

  std::unique_ptr<Stmt> ParseWhile() {
    auto stmt = NewStmt(StmtKind::kWhile, Peek().line);
    Advance();  // 'while'
    if (!Expect(TokenKind::kLParen, "after while")) {
      return nullptr;
    }
    stmt->expr = ParseExpr();
    if (!stmt->expr || !Expect(TokenKind::kRParen, "after condition")) {
      return nullptr;
    }
    auto body = ParseStmt();
    if (!body) {
      return nullptr;
    }
    stmt->then_body.push_back(std::move(body));
    return stmt;
  }

  std::unique_ptr<Stmt> ParseFor() {
    auto stmt = NewStmt(StmtKind::kFor, Peek().line);
    Advance();  // 'for'
    if (!Expect(TokenKind::kLParen, "after for")) {
      return nullptr;
    }
    if (!Check(TokenKind::kSemicolon)) {
      if (IsTypeKeyword(Peek().kind)) {
        stmt->init_stmt = ParseVarDecl();
      } else {
        auto init = NewStmt(StmtKind::kExpr, Peek().line);
        init->expr = ParseExpr();
        if (!init->expr) {
          return nullptr;
        }
        stmt->init_stmt = std::move(init);
      }
      if (!stmt->init_stmt) {
        return nullptr;
      }
    }
    if (!Expect(TokenKind::kSemicolon, "after for-init")) {
      return nullptr;
    }
    if (!Check(TokenKind::kSemicolon)) {
      stmt->expr = ParseExpr();
      if (!stmt->expr) {
        return nullptr;
      }
    }
    if (!Expect(TokenKind::kSemicolon, "after for-condition")) {
      return nullptr;
    }
    if (!Check(TokenKind::kRParen)) {
      stmt->step_expr = ParseExpr();
      if (!stmt->step_expr) {
        return nullptr;
      }
    }
    if (!Expect(TokenKind::kRParen, "after for-step")) {
      return nullptr;
    }
    auto body = ParseStmt();
    if (!body) {
      return nullptr;
    }
    stmt->then_body.push_back(std::move(body));
    return stmt;
  }

  std::unique_ptr<Stmt> ParseSwitch() {
    auto stmt = NewStmt(StmtKind::kSwitch, Peek().line);
    Advance();  // 'switch'
    if (!Expect(TokenKind::kLParen, "after switch")) {
      return nullptr;
    }
    stmt->expr = ParseExpr();
    if (!stmt->expr || !Expect(TokenKind::kRParen, "after scrutinee") ||
        !Expect(TokenKind::kLBrace, "to open switch body")) {
      return nullptr;
    }
    while (!Check(TokenKind::kRBrace) && !Check(TokenKind::kEof)) {
      SwitchCase sc;
      if (Match(TokenKind::kKwCase)) {
        bool negative = Match(TokenKind::kMinus);
        if (!Check(TokenKind::kIntLiteral) && !Check(TokenKind::kCharLiteral)) {
          Fail("expected constant after case");
          return nullptr;
        }
        sc.value = Advance().int_value;
        if (negative) {
          sc.value = -sc.value;
        }
      } else if (Match(TokenKind::kKwDefault)) {
        sc.is_default = true;
      } else {
        Fail("expected case or default");
        return nullptr;
      }
      if (!Expect(TokenKind::kColon, "after case label")) {
        return nullptr;
      }
      while (!Check(TokenKind::kKwCase) && !Check(TokenKind::kKwDefault) &&
             !Check(TokenKind::kRBrace) && !Check(TokenKind::kEof)) {
        auto body_stmt = ParseStmt();
        if (!body_stmt) {
          return nullptr;
        }
        sc.body.push_back(std::move(body_stmt));
      }
      stmt->cases.push_back(std::move(sc));
    }
    if (!Expect(TokenKind::kRBrace, "to close switch body")) {
      return nullptr;
    }
    return stmt;
  }

  // --- Expressions ----------------------------------------------------------

  std::unique_ptr<Expr> ParseExpr() { return ParseAssignment(); }

  std::unique_ptr<Expr> ParseAssignment() {
    auto lhs = ParseConditional();
    if (!lhs) {
      return nullptr;
    }
    AssignOp op;
    if (Check(TokenKind::kAssign)) {
      op = AssignOp::kPlain;
    } else if (Check(TokenKind::kPlusAssign)) {
      op = AssignOp::kAdd;
    } else if (Check(TokenKind::kMinusAssign)) {
      op = AssignOp::kSub;
    } else {
      return lhs;
    }
    if (lhs->kind != ExprKind::kVarRef && lhs->kind != ExprKind::kIndex) {
      Fail("assignment target must be a variable or array element");
      return nullptr;
    }
    const int line = Peek().line;
    Advance();
    auto rhs = ParseAssignment();
    if (!rhs) {
      return nullptr;
    }
    auto expr = NewExpr(ExprKind::kAssign, line);
    expr->assign_op = op;
    expr->children.push_back(std::move(lhs));
    expr->children.push_back(std::move(rhs));
    return expr;
  }

  std::unique_ptr<Expr> ParseConditional() {
    auto cond = ParseBinary(0);
    if (!cond) {
      return nullptr;
    }
    if (!Check(TokenKind::kQuestion)) {
      return cond;
    }
    const int line = Advance().line;
    auto then_expr = ParseExpr();
    if (!then_expr || !Expect(TokenKind::kColon, "in conditional expression")) {
      return nullptr;
    }
    auto else_expr = ParseConditional();
    if (!else_expr) {
      return nullptr;
    }
    auto expr = NewExpr(ExprKind::kConditional, line);
    expr->children.push_back(std::move(cond));
    expr->children.push_back(std::move(then_expr));
    expr->children.push_back(std::move(else_expr));
    return expr;
  }

  struct BinOpInfo {
    BinaryOp op;
    int precedence;
  };

  static bool BinaryOpFor(TokenKind kind, BinOpInfo& info) {
    switch (kind) {
      case TokenKind::kPipePipe:
        info = {BinaryOp::kOr, 1};
        return true;
      case TokenKind::kAmpAmp:
        info = {BinaryOp::kAnd, 2};
        return true;
      case TokenKind::kPipe:
        info = {BinaryOp::kBitOr, 3};
        return true;
      case TokenKind::kCaret:
        info = {BinaryOp::kBitXor, 4};
        return true;
      case TokenKind::kAmp:
        info = {BinaryOp::kBitAnd, 5};
        return true;
      case TokenKind::kEq:
        info = {BinaryOp::kEq, 6};
        return true;
      case TokenKind::kNe:
        info = {BinaryOp::kNe, 6};
        return true;
      case TokenKind::kLt:
        info = {BinaryOp::kLt, 7};
        return true;
      case TokenKind::kLe:
        info = {BinaryOp::kLe, 7};
        return true;
      case TokenKind::kGt:
        info = {BinaryOp::kGt, 7};
        return true;
      case TokenKind::kGe:
        info = {BinaryOp::kGe, 7};
        return true;
      case TokenKind::kShl:
        info = {BinaryOp::kShl, 8};
        return true;
      case TokenKind::kShr:
        info = {BinaryOp::kShr, 8};
        return true;
      case TokenKind::kPlus:
        info = {BinaryOp::kAdd, 9};
        return true;
      case TokenKind::kMinus:
        info = {BinaryOp::kSub, 9};
        return true;
      case TokenKind::kStar:
        info = {BinaryOp::kMul, 10};
        return true;
      case TokenKind::kSlash:
        info = {BinaryOp::kDiv, 10};
        return true;
      case TokenKind::kPercent:
        info = {BinaryOp::kRem, 10};
        return true;
      default:
        return false;
    }
  }

  std::unique_ptr<Expr> ParseBinary(int min_precedence) {
    auto lhs = ParseUnary();
    if (!lhs) {
      return nullptr;
    }
    for (;;) {
      BinOpInfo info;
      if (!BinaryOpFor(Peek().kind, info) || info.precedence < min_precedence) {
        return lhs;
      }
      const int line = Advance().line;
      auto rhs = ParseBinary(info.precedence + 1);
      if (!rhs) {
        return nullptr;
      }
      auto expr = NewExpr(ExprKind::kBinary, line);
      expr->binary_op = info.op;
      expr->children.push_back(std::move(lhs));
      expr->children.push_back(std::move(rhs));
      lhs = std::move(expr);
    }
  }

  std::unique_ptr<Expr> ParseUnary() {
    const int line = Peek().line;
    UnaryOp op;
    if (Match(TokenKind::kMinus)) {
      op = UnaryOp::kNeg;
    } else if (Match(TokenKind::kBang)) {
      op = UnaryOp::kNot;
    } else if (Match(TokenKind::kTilde)) {
      op = UnaryOp::kBitNot;
    } else if (Match(TokenKind::kPlusPlus)) {
      op = UnaryOp::kPreInc;
    } else if (Match(TokenKind::kMinusMinus)) {
      op = UnaryOp::kPreDec;
    } else {
      return ParsePostfix();
    }
    auto operand = ParseUnary();
    if (!operand) {
      return nullptr;
    }
    if ((op == UnaryOp::kPreInc || op == UnaryOp::kPreDec) &&
        operand->kind != ExprKind::kVarRef && operand->kind != ExprKind::kIndex) {
      Fail("++/-- requires a variable or array element");
      return nullptr;
    }
    auto expr = NewExpr(ExprKind::kUnary, line);
    expr->unary_op = op;
    expr->children.push_back(std::move(operand));
    return expr;
  }

  std::unique_ptr<Expr> ParsePostfix() {
    auto base = ParsePrimary();
    if (!base) {
      return nullptr;
    }
    while (Check(TokenKind::kLBracket)) {
      const int line = Advance().line;
      auto index = ParseExpr();
      if (!index || !Expect(TokenKind::kRBracket, "after index")) {
        return nullptr;
      }
      if (base->kind != ExprKind::kVarRef) {
        Fail("only named arrays can be indexed");
        return nullptr;
      }
      auto expr = NewExpr(ExprKind::kIndex, line);
      expr->name = base->name;
      expr->children.push_back(std::move(base));
      expr->children.push_back(std::move(index));
      base = std::move(expr);
    }
    return base;
  }

  std::unique_ptr<Expr> ParsePrimary() {
    const Token& tok = Peek();
    switch (tok.kind) {
      case TokenKind::kIntLiteral: {
        auto expr = NewExpr(ExprKind::kIntLiteral, tok.line);
        expr->int_value = Advance().int_value;
        return expr;
      }
      case TokenKind::kCharLiteral: {
        auto expr = NewExpr(ExprKind::kCharLiteral, tok.line);
        expr->int_value = Advance().int_value;
        return expr;
      }
      case TokenKind::kStringLiteral: {
        auto expr = NewExpr(ExprKind::kStringLiteral, tok.line);
        expr->str_value = Advance().text;
        return expr;
      }
      case TokenKind::kKwTrue:
      case TokenKind::kKwFalse: {
        auto expr = NewExpr(ExprKind::kBoolLiteral, tok.line);
        expr->int_value = tok.kind == TokenKind::kKwTrue ? 1 : 0;
        Advance();
        return expr;
      }
      case TokenKind::kIdentifier: {
        const Token name_tok = Advance();
        if (Check(TokenKind::kLParen)) {
          Advance();
          auto expr = NewExpr(ExprKind::kCall, name_tok.line);
          expr->name = name_tok.text;
          if (!Check(TokenKind::kRParen)) {
            do {
              auto arg = ParseExpr();
              if (!arg) {
                return nullptr;
              }
              expr->children.push_back(std::move(arg));
            } while (Match(TokenKind::kComma));
          }
          if (!Expect(TokenKind::kRParen, "after call arguments")) {
            return nullptr;
          }
          return expr;
        }
        auto expr = NewExpr(ExprKind::kVarRef, name_tok.line);
        expr->name = name_tok.text;
        return expr;
      }
      case TokenKind::kLParen: {
        Advance();
        auto expr = ParseExpr();
        if (!expr || !Expect(TokenKind::kRParen, "to close parenthesised expression")) {
          return nullptr;
        }
        return expr;
      }
      default:
        Fail(support::Format("unexpected token '%s'", TokenKindName(tok.kind)));
        return nullptr;
    }
  }

  static std::unique_ptr<Stmt> NewStmt(StmtKind kind, int line) {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = kind;
    stmt->line = line;
    return stmt;
  }

  static std::unique_ptr<Expr> NewExpr(ExprKind kind, int line) {
    auto expr = std::make_unique<Expr>();
    expr->kind = kind;
    expr->line = line;
    return expr;
  }

  const std::vector<Token>& tokens_;
  size_t pos_ = 0;
  std::string error_;
};

// Robustness injection site: keyed by the source digest, so a configured
// parse-fault rate hits the same files at any thread count. The digest is
// taken only while some fault site is armed.
bool ParseFaultFires(std::string_view source) {
  const auto& faults = support::FaultInjector::Global();
  return faults.enabled() &&
         faults.ShouldFail(support::FaultSite::kParse, support::FaultKey(source));
}

support::Error InjectedParseFault() {
  return support::Error(support::Error::Code::kInternal, "injected fault: parse");
}

}  // namespace

support::Result<TranslationUnit> Parse(std::string_view source) {
  if (ParseFaultFires(source)) {
    return InjectedParseFault();
  }
  const auto lexed = Lex(source);
  if (!lexed.ok()) {
    return lexed.error();
  }
  return Parser(lexed.value().tokens).Run();
}

support::Result<TranslationUnit> ParseTokens(std::string_view source,
                                             const std::vector<Token>& tokens) {
  if (ParseFaultFires(source)) {
    return InjectedParseFault();
  }
  return Parser(tokens).Run();
}

}  // namespace lang
