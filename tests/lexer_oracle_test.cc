// The MiniC lexer against a reference copy of its first implementation.
//
// ReferenceLex below is that implementation verbatim (std::set line facts,
// longest-match operator table, per-character string building), kept only
// as an oracle. The production lexer must agree with it on every Token
// field, on LineFacts and on every error message, over a generated
// ecosystem's MiniC files, seeded byte mutants of them, and hand-written
// edge cases. The same corpus also pins the shallow feature rows and the
// function index, so a front-end change that alters any output fails here.
#include <gtest/gtest.h>

#include <chrono>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/clair/feature_cache.h"
#include "src/clair/incremental.h"
#include "src/corpus/ecosystem.h"
#include "src/lang/lexer.h"
#include "src/metrics/extract.h"
#include "src/support/rng.h"
#include "src/support/strings.h"

namespace lang {
namespace reference {

using support::Error;

TokenKind ClassifyIdentifier(std::string_view text) {
  static const std::unordered_map<std::string_view, TokenKind> kKeywords = {
      {"int", TokenKind::kKwInt},         {"char", TokenKind::kKwChar},
      {"bool", TokenKind::kKwBool},       {"void", TokenKind::kKwVoid},
      {"if", TokenKind::kKwIf},           {"else", TokenKind::kKwElse},
      {"while", TokenKind::kKwWhile},     {"for", TokenKind::kKwFor},
      {"return", TokenKind::kKwReturn},   {"break", TokenKind::kKwBreak},
      {"continue", TokenKind::kKwContinue}, {"switch", TokenKind::kKwSwitch},
      {"case", TokenKind::kKwCase},       {"default", TokenKind::kKwDefault},
      {"true", TokenKind::kKwTrue},       {"false", TokenKind::kKwFalse},
  };
  const auto it = kKeywords.find(text);
  return it == kKeywords.end() ? TokenKind::kIdentifier : it->second;
}

class LexerImpl {
 public:
  explicit LexerImpl(std::string_view source) : src_(source) {}

  support::Result<LexOutput> Run() {
    while (!AtEnd()) {
      SkipWhitespaceAndComments();
      if (!error_.empty()) {
        return Error(Error::Code::kParseError, error_);
      }
      if (AtEnd()) {
        break;
      }
      const int line = line_;
      const int col = column_;
      Token tok;
      if (!LexOne(tok)) {
        return Error(Error::Code::kParseError,
                     support::Format("line %d:%d: %s", line, col, error_.c_str()));
      }
      tok.line = line;
      tok.column = col;
      code_line_set_.insert(line);
      out_.tokens.push_back(std::move(tok));
    }
    Token eof;
    eof.kind = TokenKind::kEof;
    eof.line = line_;
    eof.column = column_;
    out_.tokens.push_back(std::move(eof));
    FinishLineFacts();
    return std::move(out_);
  }

 private:
  bool AtEnd() const { return pos_ >= src_.size(); }
  char Peek(size_t ahead = 0) const {
    return pos_ + ahead < src_.size() ? src_[pos_ + ahead] : '\0';
  }

  char Advance() {
    const char c = src_[pos_++];
    if (c == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    return c;
  }

  void SkipWhitespaceAndComments() {
    for (;;) {
      if (AtEnd()) {
        return;
      }
      const char c = Peek();
      if (std::isspace(static_cast<unsigned char>(c))) {
        Advance();
        continue;
      }
      if (c == '/' && Peek(1) == '/') {
        comment_line_set_.insert(line_);
        while (!AtEnd() && Peek() != '\n') {
          Advance();
        }
        continue;
      }
      if (c == '/' && Peek(1) == '*') {
        const int start_line = line_;
        Advance();
        Advance();
        bool closed = false;
        while (!AtEnd()) {
          comment_line_set_.insert(line_);
          if (Peek() == '*' && Peek(1) == '/') {
            Advance();
            Advance();
            closed = true;
            break;
          }
          Advance();
        }
        if (!closed) {
          error_ = support::Format("line %d: unterminated block comment", start_line);
          return;
        }
        comment_line_set_.insert(start_line);
        continue;
      }
      return;
    }
  }

  bool LexOne(Token& tok) {
    const char c = Peek();
    if (std::isdigit(static_cast<unsigned char>(c))) {
      return LexNumber(tok);
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      return LexIdentifier(tok);
    }
    if (c == '\'') {
      return LexCharLiteral(tok);
    }
    if (c == '"') {
      return LexStringLiteral(tok);
    }
    return LexOperator(tok);
  }

  bool LexNumber(Token& tok) {
    std::string text;
    int64_t value = 0;
    if (Peek() == '0' && (Peek(1) == 'x' || Peek(1) == 'X')) {
      text += Advance();
      text += Advance();
      if (!std::isxdigit(static_cast<unsigned char>(Peek()))) {
        error_ = "malformed hex literal";
        return false;
      }
      while (std::isxdigit(static_cast<unsigned char>(Peek()))) {
        const char d = Advance();
        text += d;
        int digit;
        if (d >= '0' && d <= '9') {
          digit = d - '0';
        } else {
          digit = std::tolower(static_cast<unsigned char>(d)) - 'a' + 10;
        }
        value = value * 16 + digit;
      }
    } else {
      while (std::isdigit(static_cast<unsigned char>(Peek()))) {
        const char d = Advance();
        text += d;
        value = value * 10 + (d - '0');
      }
    }
    tok.kind = TokenKind::kIntLiteral;
    tok.text = std::move(text);
    tok.int_value = value;
    return true;
  }

  bool LexIdentifier(Token& tok) {
    std::string text;
    while (std::isalnum(static_cast<unsigned char>(Peek())) || Peek() == '_') {
      text += Advance();
    }
    tok.kind = ClassifyIdentifier(text);
    if (tok.kind == TokenKind::kKwTrue) {
      tok.int_value = 1;
    }
    tok.text = std::move(text);
    return true;
  }

  bool LexCharLiteral(Token& tok) {
    Advance();  // Opening quote.
    if (AtEnd()) {
      error_ = "unterminated character literal";
      return false;
    }
    char value = Advance();
    if (value == '\\') {
      if (AtEnd()) {
        error_ = "unterminated escape";
        return false;
      }
      value = Unescape(Advance());
    }
    if (AtEnd() || Peek() != '\'') {
      error_ = "unterminated character literal";
      return false;
    }
    Advance();  // Closing quote.
    tok.kind = TokenKind::kCharLiteral;
    tok.text = std::string(1, value);
    tok.int_value = static_cast<unsigned char>(value);
    return true;
  }

  bool LexStringLiteral(Token& tok) {
    Advance();  // Opening quote.
    std::string text;
    while (!AtEnd() && Peek() != '"') {
      char c = Advance();
      if (c == '\n') {
        error_ = "newline in string literal";
        return false;
      }
      if (c == '\\') {
        if (AtEnd()) {
          error_ = "unterminated escape";
          return false;
        }
        c = Unescape(Advance());
      }
      text += c;
    }
    if (AtEnd()) {
      error_ = "unterminated string literal";
      return false;
    }
    Advance();  // Closing quote.
    tok.kind = TokenKind::kStringLiteral;
    tok.text = std::move(text);
    return true;
  }

  static char Unescape(char c) {
    switch (c) {
      case 'n':
        return '\n';
      case 't':
        return '\t';
      case 'r':
        return '\r';
      case '0':
        return '\0';
      default:
        return c;
    }
  }

  bool LexOperator(Token& tok) {
    struct OpEntry {
      const char* spelling;
      TokenKind kind;
    };
    // Longest-match first.
    static const OpEntry kOps[] = {
        {"<<", TokenKind::kShl},        {">>", TokenKind::kShr},
        {"<=", TokenKind::kLe},         {">=", TokenKind::kGe},
        {"==", TokenKind::kEq},         {"!=", TokenKind::kNe},
        {"&&", TokenKind::kAmpAmp},     {"||", TokenKind::kPipePipe},
        {"+=", TokenKind::kPlusAssign}, {"-=", TokenKind::kMinusAssign},
        {"++", TokenKind::kPlusPlus},   {"--", TokenKind::kMinusMinus},
        {"(", TokenKind::kLParen},      {")", TokenKind::kRParen},
        {"{", TokenKind::kLBrace},      {"}", TokenKind::kRBrace},
        {"[", TokenKind::kLBracket},    {"]", TokenKind::kRBracket},
        {",", TokenKind::kComma},       {";", TokenKind::kSemicolon},
        {":", TokenKind::kColon},       {"+", TokenKind::kPlus},
        {"-", TokenKind::kMinus},       {"*", TokenKind::kStar},
        {"/", TokenKind::kSlash},       {"%", TokenKind::kPercent},
        {"=", TokenKind::kAssign},      {"<", TokenKind::kLt},
        {">", TokenKind::kGt},          {"!", TokenKind::kBang},
        {"&", TokenKind::kAmp},         {"|", TokenKind::kPipe},
        {"^", TokenKind::kCaret},       {"~", TokenKind::kTilde},
        {"?", TokenKind::kQuestion},
    };
    for (const auto& op : kOps) {
      const std::string_view spelling(op.spelling);
      if (src_.substr(pos_).substr(0, spelling.size()) == spelling) {
        for (size_t i = 0; i < spelling.size(); ++i) {
          Advance();
        }
        tok.kind = op.kind;
        tok.text = std::string(spelling);
        return true;
      }
    }
    error_ = support::Format("unexpected character '%c'", Peek());
    return false;
  }

  void FinishLineFacts() {
    // A line is counted when newline-terminated, plus a final unterminated
    // line if the file does not end in '\n' (cloc semantics).
    int total = 0;
    for (char c : src_) {
      if (c == '\n') {
        ++total;
      }
    }
    if (!src_.empty() && src_.back() != '\n') {
      ++total;
    }
    out_.lines.total_lines = total;
    out_.lines.code_lines = static_cast<int>(code_line_set_.size());
    int comment_only = 0;
    for (int line : comment_line_set_) {
      if (!code_line_set_.contains(line)) {
        ++comment_only;
      }
    }
    out_.lines.comment_lines = comment_only;
    out_.lines.blank_lines =
        total - static_cast<int>(code_line_set_.size()) - comment_only;
    if (out_.lines.blank_lines < 0) {
      out_.lines.blank_lines = 0;
    }
  }

  std::string_view src_;
  size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
  LexOutput out_;
  std::set<int> code_line_set_;
  std::set<int> comment_line_set_;
  std::string error_;
};

support::Result<LexOutput> ReferenceLex(std::string_view source) {
  return LexerImpl(source).Run();
}

}  // namespace reference
}  // namespace lang

namespace {

using lang::reference::ReferenceLex;

// Printable form of a source for failure messages.
std::string Quoted(std::string_view source) {
  std::string out;
  for (const char c : source.substr(0, 200)) {
    const auto u = static_cast<unsigned char>(c);
    out += std::isprint(u) ? std::string(1, c) : support::Format("\\x%02x", u);
  }
  return out;
}

// True when both lexers give the same tokens (every field), line facts and
// error (code and message) for `source`; otherwise adds a failure.
bool LexersAgree(std::string_view source) {
  const auto want = ReferenceLex(source);
  const auto got = lang::Lex(source);
  if (want.ok() != got.ok()) {
    ADD_FAILURE() << "ok " << got.ok() << " vs reference " << want.ok() << " on \""
                  << Quoted(source) << "\"";
    return false;
  }
  if (!want.ok()) {
    const bool same = want.error().code() == got.error().code() &&
                      want.error().message() == got.error().message();
    if (!same) {
      ADD_FAILURE() << "error \"" << got.error().message() << "\" vs reference \""
                    << want.error().message() << "\" on \"" << Quoted(source) << "\"";
    }
    return same;
  }
  const lang::LineFacts& a = want.value().lines;
  const lang::LineFacts& b = got.value().lines;
  if (a.total_lines != b.total_lines || a.blank_lines != b.blank_lines ||
      a.comment_lines != b.comment_lines || a.code_lines != b.code_lines) {
    ADD_FAILURE() << "line facts differ on \"" << Quoted(source) << "\"";
    return false;
  }
  const auto& wt = want.value().tokens;
  const auto& gt = got.value().tokens;
  if (wt.size() != gt.size()) {
    ADD_FAILURE() << gt.size() << " tokens vs reference " << wt.size() << " on \""
                  << Quoted(source) << "\"";
    return false;
  }
  for (size_t i = 0; i < wt.size(); ++i) {
    if (wt[i].kind != gt[i].kind || wt[i].text != gt[i].text ||
        wt[i].int_value != gt[i].int_value || wt[i].line != gt[i].line ||
        wt[i].column != gt[i].column) {
      ADD_FAILURE() << "token " << i << " (" << gt[i].line << ":" << gt[i].column << " '"
                    << gt[i].text << "') vs reference (" << wt[i].line << ":"
                    << wt[i].column << " '" << wt[i].text << "') on \"" << Quoted(source)
                    << "\"";
      return false;
    }
  }
  return true;
}

// Every MiniC file of a small generated ecosystem, in spec then file order.
const std::vector<metrics::SourceFile>& CorpusFiles() {
  static const std::vector<metrics::SourceFile> files = [] {
    corpus::CorpusOptions options;
    options.mature_apps = 12;
    options.immature_apps = 2;
    options.size_scale = 0.05;
    const corpus::EcosystemGenerator eco(options);
    std::vector<metrics::SourceFile> out;
    for (const auto& spec : eco.specs()) {
      for (auto& file : eco.GenerateSources(spec)) {
        if (file.language == metrics::Language::kMiniC) {
          out.push_back(std::move(file));
        }
      }
    }
    return out;
  }();
  return files;
}

// One seeded edit aimed at a lexer path: quotes, comment openers, hex
// prefixes, stray bytes, a newline inside a string, deletions, replacements
// and truncation.
void Mutate(support::Rng& rng, std::string& text) {
  static const char kStray[] = {'@', '$', '#', '`', '\\', '\x80', '\xff', '\0',
                                '\t', '\r', '\v', '\f', '\'', '"', '/', '*'};
  const size_t pos = static_cast<size_t>(rng.NextBelow(text.size() + 1));
  switch (rng.NextBelow(12)) {
    case 0:
      text.insert(pos, "\"");
      break;
    case 1:
      text.insert(pos, "'");
      break;
    case 2:
      text.insert(pos, "/*");
      break;
    case 3:
      text.insert(pos, "*/");
      break;
    case 4:
      text.insert(pos, rng.NextBelow(2) == 0 ? "0x" : "0X");
      break;
    case 5:
      text.insert(pos, 1, kStray[rng.NextBelow(sizeof(kStray))]);
      break;
    case 6:
      text.insert(pos, "\"ab\ncd\"");
      break;
    case 7:
      text.insert(pos, rng.NextBelow(2) == 0 ? "'\\" : "\"x\\");
      break;
    case 8:
      text.insert(pos, "//");
      break;
    case 9:
      if (pos < text.size()) {
        text.erase(pos, 1);
      }
      break;
    case 10:
      if (pos < text.size()) {
        text[pos] = static_cast<char>(rng.NextBelow(256));
      }
      break;
    default:
      text.resize(pos);
      break;
  }
}

TEST(LexerOracle, AgreesOnGeneratedCorpus) {
  const auto& files = CorpusFiles();
  ASSERT_GE(files.size(), 40u);
  size_t agreed = 0;
  for (const auto& file : files) {
    agreed += LexersAgree(file.text) ? 1 : 0;
  }
  EXPECT_EQ(agreed, files.size());
}

TEST(LexerOracle, AgreesOnSeededByteMutants) {
  const auto& files = CorpusFiles();
  support::Rng rng(20170508);
  constexpr int kMutants = 2400;
  // Every error the lexer can report; the mutants must reach each one.
  const std::vector<std::string> kErrors = {
      "unterminated block comment", "malformed hex literal",
      "unterminated character literal", "unterminated escape",
      "newline in string literal",  "unterminated string literal",
      "unexpected character"};
  std::set<std::string> errors_seen;
  int agreed = 0;
  int failed_to_lex = 0;
  for (int i = 0; i < kMutants; ++i) {
    std::string text = files[rng.NextBelow(files.size())].text;
    const int edits = 1 + static_cast<int>(rng.NextBelow(3));
    for (int e = 0; e < edits; ++e) {
      Mutate(rng, text);
    }
    agreed += LexersAgree(text) ? 1 : 0;
    const auto reference = ReferenceLex(text);
    if (!reference.ok()) {
      ++failed_to_lex;
      for (const auto& error : kErrors) {
        if (reference.error().message().find(error) != std::string::npos) {
          errors_seen.insert(error);
        }
      }
    }
  }
  EXPECT_EQ(agreed, kMutants);
  // Both outcomes must be well represented for the mutants to reach the
  // error paths as well as the token paths.
  EXPECT_GT(failed_to_lex, kMutants / 5);
  EXPECT_LT(failed_to_lex, kMutants * 4 / 5);
  EXPECT_EQ(errors_seen.size(), kErrors.size());
}

TEST(LexerOracle, AgreesOnEdgeCases) {
  const std::vector<std::string> cases = {
      "",
      "\n",
      "\n\n\n",
      "no newline at end",
      "int x;\r\nint y;\r\n",
      "\t\v\f x",
      "/* never closed",
      "/* never\n closed\n",
      "/*/ */ x",
      "/**/x",
      "a /* one\ntwo\nthree */ b\n",
      "x // trailing\n// whole line\n\n",
      "// only a comment",
      "/",
      "a/b",
      "\"no closing quote",
      "\"newline\ninside\"",
      "\"escaped \\\n newline\"",
      "\"escape at end\\",
      "\"tab\\t nul\\0 quote\\\" q\\q\"",
      "'",
      "'a",
      "'ab'",
      "'\\",
      "'\\n' '\\0' '\\'' '\\\\'",
      "'\n'",
      "'\\\n'",
      "0x",
      "0xZ",
      "0XaBcDeF 0x0 00 0123",
      "9abc",
      "int_x iff _ __x9 If INT true false truex",
      "int char bool void if else while for return break continue switch case default",
      ">> << >>= <<= <= >= == != && || += -= ++ -- a+++b x---y &&& ||| !== ===",
      "( ) { } [ ] , ; : + - * / % = < > ! & | ^ ~ ?",
      "x @ y",
      "x $",
      "#include",
      "`",
      "\\",
      "\x80",
      "ok \xff",
      std::string("a\0b", 3),
      "int f() {\n  return 1;\n}\n",
  };
  for (const auto& source : cases) {
    EXPECT_TRUE(LexersAgree(source));
  }
}

// Digests of every output the front end feeds, over the generated corpus:
// the shallow feature row of each file and its function index. The values
// were recorded from the reference lexer's build and must not move.
TEST(LexerOracle, FrontEndOutputsArePinned) {
  const auto& files = CorpusFiles();
  uint64_t rows = clair::Fnv1a64("rows");
  uint64_t index = clair::Fnv1a64("index");
  const auto mix = [](uint64_t hash, uint64_t value) {
    return clair::Fnv1a64(std::string_view(reinterpret_cast<const char*>(&value), sizeof(value)),
                          hash);
  };
  for (const auto& file : files) {
    const metrics::FeatureVector row = metrics::ExtractFileFeatures(file);
    for (const auto& [name, value] : row.values()) {
      uint64_t bits;
      std::memcpy(&bits, &value, sizeof(bits));
      rows = mix(clair::Fnv1a64(name, rows), bits);
    }
    const clair::FileFunctionIndex fi = clair::IndexFunctions(file);
    index = mix(mix(mix(index, fi.parsed ? 1 : 0), fi.file_token_hash), fi.preamble_hash);
    for (const auto& fn : fi.functions) {
      index = mix(mix(mix(clair::Fnv1a64(fn.name, index), fn.token_hash),
                      static_cast<uint64_t>(fn.line)),
                  static_cast<uint64_t>(fn.end_line));
    }
  }
  EXPECT_EQ(files.size(), 285u);
  EXPECT_EQ(rows, 0x0492fc433ced31cfULL);
  EXPECT_EQ(index, 0x2373889c2b193295ULL);
}

// Not an assertion (timing is machine-dependent): reports both lexers'
// speed over the corpus for the record.
TEST(LexerOracle, ReportsSpeedAgainstReference) {
  const auto& files = CorpusFiles();
  size_t bytes = 0;
  for (const auto& file : files) {
    bytes += file.text.size();
  }
  const auto ns_per_byte = [&](auto&& lex) {
    constexpr int kRounds = 5;
    const auto start = std::chrono::steady_clock::now();
    size_t tokens = 0;
    for (int round = 0; round < kRounds; ++round) {
      for (const auto& file : files) {
        tokens += lex(file.text).value().tokens.size();
      }
    }
    const double ns = std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    EXPECT_GT(tokens, 0u);
    return ns / static_cast<double>(bytes * kRounds);
  };
  const double reference = ns_per_byte(ReferenceLex);
  const double current = ns_per_byte(lang::Lex);
  std::printf("lexer: %.2f ns/byte, reference %.2f ns/byte (%.1fx) over %zu files, %zu bytes\n",
              current, reference, reference / current, files.size(), bytes);
}

}  // namespace
