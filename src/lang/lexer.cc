#include "src/lang/lexer.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>

#include "src/support/strings.h"

namespace lang {
namespace {

using support::Error;

// Character classes over bytes, matching the C-locale <cctype> predicates
// the language is defined by (bytes >= 0x80 belong to no class).
enum : uint8_t {
  kSpace = 1 << 0,       // isspace: ' ' \t \n \v \f \r
  kDigit = 1 << 1,       // isdigit
  kHexDigit = 1 << 2,    // isxdigit
  kIdentStart = 1 << 3,  // isalpha or '_'
  kIdentChar = 1 << 4,   // isalnum or '_'
};

constexpr std::array<uint8_t, 256> MakeCharClasses() {
  std::array<uint8_t, 256> classes{};
  for (const char c : {' ', '\t', '\n', '\v', '\f', '\r'}) {
    classes[static_cast<unsigned char>(c)] |= kSpace;
  }
  for (int c = '0'; c <= '9'; ++c) {
    classes[c] |= kDigit | kHexDigit | kIdentChar;
  }
  for (int c = 'a'; c <= 'z'; ++c) {
    classes[c] |= kIdentStart | kIdentChar;
    classes[c - 'a' + 'A'] |= kIdentStart | kIdentChar;
  }
  for (int c = 'a'; c <= 'f'; ++c) {
    classes[c] |= kHexDigit;
    classes[c - 'a' + 'A'] |= kHexDigit;
  }
  classes['_'] |= kIdentStart | kIdentChar;
  return classes;
}

constexpr std::array<uint8_t, 256> kCharClasses = MakeCharClasses();

bool Is(char c, uint8_t cls) { return (kCharClasses[static_cast<unsigned char>(c)] & cls) != 0; }

char Unescape(char c) {
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

// One left-to-right scan. Positions are byte offsets; a token's column is
// its offset from the start of its line, plus one. Line facts are flags per
// line (code / comment), folded into LineFacts at the end.
class Lexer {
 public:
  explicit Lexer(std::string_view source) : src_(source) {}

  support::Result<LexOutput> Run() {
    const size_t newlines = static_cast<size_t>(std::count(src_.begin(), src_.end(), '\n'));
    line_flags_.assign(newlines + 2, 0);
    // Generated MiniC averages well over four bytes per token.
    out_.tokens.reserve(src_.size() / 4 + 1);
    for (;;) {
      if (!SkipWhitespaceAndComments()) {
        return Error(Error::Code::kParseError, error_);
      }
      if (pos_ >= src_.size()) {
        break;
      }
      const int line = line_;
      const int col = Column();
      Token& tok = out_.tokens.emplace_back();
      if (!LexOne(tok)) {
        return Error(Error::Code::kParseError,
                     support::Format("line %d:%d: %s", line, col, error_.c_str()));
      }
      tok.line = line;
      tok.column = col;
      line_flags_[static_cast<size_t>(line)] |= kCodeLine;
    }
    Token& eof = out_.tokens.emplace_back();
    eof.kind = TokenKind::kEof;
    eof.line = line_;
    eof.column = Column();
    FinishLineFacts(newlines);
    return std::move(out_);
  }

 private:
  enum : uint8_t { kCodeLine = 1, kCommentLine = 2 };

  int Column() const { return static_cast<int>(pos_ - line_start_) + 1; }
  char Peek(size_t ahead) const {
    return pos_ + ahead < src_.size() ? src_[pos_ + ahead] : '\0';
  }

  // Consumes one byte, keeping the line count (for the rare tokens that may
  // span a newline: character literals and escapes).
  char Advance() {
    const char c = src_[pos_++];
    if (c == '\n') {
      ++line_;
      line_start_ = pos_;
    }
    return c;
  }

  // Moves to `end`, counting the newlines in between.
  void AdvanceTo(size_t end) {
    const char* const base = src_.data();
    const void* nl;
    while ((nl = std::memchr(base + pos_, '\n', end - pos_)) != nullptr) {
      pos_ = static_cast<size_t>(static_cast<const char*>(nl) - base) + 1;
      ++line_;
      line_start_ = pos_;
    }
    pos_ = end;
  }

  bool SkipWhitespaceAndComments() {
    while (pos_ < src_.size()) {
      const char c = src_[pos_];
      if (c == '\n') {
        ++pos_;
        ++line_;
        line_start_ = pos_;
        continue;
      }
      if (Is(c, kSpace)) {
        ++pos_;
        continue;
      }
      if (c != '/') {
        return true;
      }
      const char next = Peek(1);
      if (next == '/') {
        line_flags_[static_cast<size_t>(line_)] |= kCommentLine;
        const size_t end = src_.find('\n', pos_ + 2);
        pos_ = end == std::string_view::npos ? src_.size() : end;
        continue;
      }
      if (next == '*') {
        const int start_line = line_;
        const size_t close = src_.find("*/", pos_ + 2);
        if (close == std::string_view::npos) {
          error_ = support::Format("line %d: unterminated block comment", start_line);
          return false;
        }
        AdvanceTo(close + 2);
        for (int line = start_line; line <= line_; ++line) {
          line_flags_[static_cast<size_t>(line)] |= kCommentLine;
        }
        continue;
      }
      return true;
    }
    return true;
  }

  bool LexOne(Token& tok) {
    const char c = src_[pos_];
    if (Is(c, kDigit)) {
      return LexNumber(tok);
    }
    if (Is(c, kIdentStart)) {
      LexIdentifier(tok);
      return true;
    }
    if (c == '\'') {
      return LexCharLiteral(tok);
    }
    if (c == '"') {
      return LexStringLiteral(tok);
    }
    return LexOperator(tok, c);
  }

  // Consumes the run of `cls` bytes from the current position.
  void SkipRun(uint8_t cls) {
    while (pos_ < src_.size() && Is(src_[pos_], cls)) {
      ++pos_;
    }
  }

  bool LexNumber(Token& tok) {
    const size_t start = pos_;
    // Accumulated in uint64_t: wraps instead of overflowing.
    uint64_t value = 0;
    if (src_[pos_] == '0' && (Peek(1) == 'x' || Peek(1) == 'X')) {
      pos_ += 2;
      if (!Is(Peek(0), kHexDigit)) {
        error_ = "malformed hex literal";
        return false;
      }
      const size_t digits = pos_;
      SkipRun(kHexDigit);
      for (size_t i = digits; i < pos_; ++i) {
        const char d = src_[i];
        const int digit = d <= '9' ? d - '0' : (d | 0x20) - 'a' + 10;
        value = value * 16 + static_cast<uint64_t>(digit);
      }
    } else {
      SkipRun(kDigit);
      for (size_t i = start; i < pos_; ++i) {
        value = value * 10 + static_cast<uint64_t>(src_[i] - '0');
      }
    }
    tok.kind = TokenKind::kIntLiteral;
    tok.text.assign(src_.data() + start, pos_ - start);
    tok.int_value = static_cast<int64_t>(value);
    return true;
  }

  void LexIdentifier(Token& tok) {
    const size_t start = pos_;
    SkipRun(kIdentChar);
    const std::string_view text = src_.substr(start, pos_ - start);
    tok.kind = ClassifyIdentifier(text);
    if (tok.kind == TokenKind::kKwTrue) {
      tok.int_value = 1;
    }
    tok.text.assign(text);
  }

  bool LexCharLiteral(Token& tok) {
    ++pos_;  // Opening quote.
    if (pos_ >= src_.size()) {
      error_ = "unterminated character literal";
      return false;
    }
    char value = Advance();
    if (value == '\\') {
      if (pos_ >= src_.size()) {
        error_ = "unterminated escape";
        return false;
      }
      value = Unescape(Advance());
    }
    if (pos_ >= src_.size() || src_[pos_] != '\'') {
      error_ = "unterminated character literal";
      return false;
    }
    ++pos_;  // Closing quote.
    tok.kind = TokenKind::kCharLiteral;
    tok.text.assign(1, value);
    tok.int_value = static_cast<unsigned char>(value);
    return true;
  }

  bool LexStringLiteral(Token& tok) {
    ++pos_;  // Opening quote.
    std::string& text = tok.text;
    for (;;) {
      // Plain bytes up to the next quote, escape or newline go in one copy.
      size_t end = pos_;
      while (end < src_.size() && src_[end] != '"' && src_[end] != '\\' &&
             src_[end] != '\n') {
        ++end;
      }
      text.append(src_.data() + pos_, end - pos_);
      pos_ = end;
      if (pos_ >= src_.size()) {
        error_ = "unterminated string literal";
        return false;
      }
      const char c = src_[pos_];
      if (c == '"') {
        break;
      }
      if (c == '\n') {
        error_ = "newline in string literal";
        return false;
      }
      ++pos_;  // The backslash.
      if (pos_ >= src_.size()) {
        error_ = "unterminated escape";
        return false;
      }
      text += Unescape(Advance());
    }
    ++pos_;  // Closing quote.
    tok.kind = TokenKind::kStringLiteral;
    return true;
  }

  // Maximal munch: a two-byte operator wins over its one-byte prefix.
  bool LexOperator(Token& tok, char c) {
    const char next = Peek(1);
    size_t len = 1;
    const auto two = [&len](TokenKind kind) {
      len = 2;
      return kind;
    };
    TokenKind kind;
    switch (c) {
      case '<':
        kind = next == '<' ? two(TokenKind::kShl) : next == '=' ? two(TokenKind::kLe) : TokenKind::kLt;
        break;
      case '>':
        kind = next == '>' ? two(TokenKind::kShr) : next == '=' ? two(TokenKind::kGe) : TokenKind::kGt;
        break;
      case '+':
        kind = next == '=' ? two(TokenKind::kPlusAssign)
               : next == '+' ? two(TokenKind::kPlusPlus)
                             : TokenKind::kPlus;
        break;
      case '-':
        kind = next == '=' ? two(TokenKind::kMinusAssign)
               : next == '-' ? two(TokenKind::kMinusMinus)
                             : TokenKind::kMinus;
        break;
      case '=':
        kind = next == '=' ? two(TokenKind::kEq) : TokenKind::kAssign;
        break;
      case '!':
        kind = next == '=' ? two(TokenKind::kNe) : TokenKind::kBang;
        break;
      case '&':
        kind = next == '&' ? two(TokenKind::kAmpAmp) : TokenKind::kAmp;
        break;
      case '|':
        kind = next == '|' ? two(TokenKind::kPipePipe) : TokenKind::kPipe;
        break;
      case '(':
        kind = TokenKind::kLParen;
        break;
      case ')':
        kind = TokenKind::kRParen;
        break;
      case '{':
        kind = TokenKind::kLBrace;
        break;
      case '}':
        kind = TokenKind::kRBrace;
        break;
      case '[':
        kind = TokenKind::kLBracket;
        break;
      case ']':
        kind = TokenKind::kRBracket;
        break;
      case ',':
        kind = TokenKind::kComma;
        break;
      case ';':
        kind = TokenKind::kSemicolon;
        break;
      case ':':
        kind = TokenKind::kColon;
        break;
      case '*':
        kind = TokenKind::kStar;
        break;
      case '/':
        kind = TokenKind::kSlash;
        break;
      case '%':
        kind = TokenKind::kPercent;
        break;
      case '^':
        kind = TokenKind::kCaret;
        break;
      case '~':
        kind = TokenKind::kTilde;
        break;
      case '?':
        kind = TokenKind::kQuestion;
        break;
      default:
        error_ = support::Format("unexpected character '%c'", c);
        return false;
    }
    tok.kind = kind;
    tok.text.assign(src_.data() + pos_, len);
    pos_ += len;
    return true;
  }

  void FinishLineFacts(size_t newlines) {
    // A line is counted when newline-terminated, plus a final unterminated
    // line if the file does not end in '\n' (cloc semantics).
    int total = static_cast<int>(newlines);
    if (!src_.empty() && src_.back() != '\n') {
      ++total;
    }
    int code = 0;
    int comment_only = 0;
    for (const uint8_t flags : line_flags_) {
      if ((flags & kCodeLine) != 0) {
        ++code;
      } else if ((flags & kCommentLine) != 0) {
        ++comment_only;
      }
    }
    out_.lines.total_lines = total;
    out_.lines.code_lines = code;
    out_.lines.comment_lines = comment_only;
    out_.lines.blank_lines = std::max(total - code - comment_only, 0);
  }

  std::string_view src_;
  size_t pos_ = 0;
  size_t line_start_ = 0;  // Offset of the current line's first byte.
  int line_ = 1;
  LexOutput out_;
  std::vector<uint8_t> line_flags_;  // Indexed by 1-based line.
  std::string error_;
};

}  // namespace

support::Result<LexOutput> Lex(std::string_view source) { return Lexer(source).Run(); }

}  // namespace lang
