#include "sql/lexer.h"

#include <array>
#include <charconv>
#include <cstdint>
#include <cstdlib>

#include "common/string_util.h"

namespace isum::sql {

namespace {

// Character classes of the C locale, spelled out so lexing never consults
// the process locale: one table lookup per input byte.
enum CharClass : uint8_t {
  kOther = 0,
  kSpace = 1,
  kDigit = 2,
  kIdentStart = 4,  // letters and '_'
};

constexpr std::array<uint8_t, 256> MakeCharClasses() {
  std::array<uint8_t, 256> classes{};
  for (int c = '\t'; c <= '\r'; ++c) classes[c] = kSpace;
  classes[' '] = kSpace;
  for (int c = '0'; c <= '9'; ++c) classes[c] = kDigit;
  for (int c = 'a'; c <= 'z'; ++c) classes[c] = kIdentStart;
  for (int c = 'A'; c <= 'Z'; ++c) classes[c] = kIdentStart;
  classes['_'] = kIdentStart;
  return classes;
}

constexpr std::array<uint8_t, 256> kCharClasses = MakeCharClasses();

uint8_t ClassOf(char c) { return kCharClasses[static_cast<unsigned char>(c)]; }
bool IsSpace(char c) { return ClassOf(c) == kSpace; }
bool IsDigit(char c) { return ClassOf(c) == kDigit; }
bool IsIdentStart(char c) { return ClassOf(c) == kIdentStart; }
bool IsIdentChar(char c) { return (ClassOf(c) & (kDigit | kIdentStart)) != 0; }

/// Converts a lexed number, correctly rounded like strtod. from_chars
/// leaves the value unset on overflow or underflow; those rare spellings go
/// through strtod for its ±HUGE_VAL / denormal results.
double ParseNumber(std::string_view text) {
  double value = 0.0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec == std::errc() && end == text.data() + text.size()) return value;
  const std::string copy(text);
  return std::strtod(copy.c_str(), nullptr);
}

}  // namespace

std::string Token::StringValue() const {
  std::string value;
  value.reserve(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    value.push_back(text[i]);
    if (text[i] == '\'') ++i;  // the lexer only admits doubled quotes
  }
  return value;
}

StatusOr<std::vector<Token>> Tokenize(std::string_view sql) {
  std::vector<Token> tokens;
  // Generated workload queries average ~6 input bytes per token.
  tokens.reserve(sql.size() / 4 + 2);
  size_t i = 0;
  const size_t n = sql.size();
  while (i < n) {
    const char c = sql[i];
    if (IsSpace(c)) {
      ++i;
      continue;
    }
    // Line comments: -- ... \n
    if (c == '-' && i + 1 < n && sql[i + 1] == '-') {
      while (i < n && sql[i] != '\n') ++i;
      continue;
    }
    Token tok;
    tok.offset = i;
    if (IsIdentStart(c)) {
      size_t j = i + 1;
      while (j < n && IsIdentChar(sql[j])) ++j;
      tok.type = TokenType::kIdentifier;
      tok.text = sql.substr(i, j - i);
      i = j;
    } else if (IsDigit(c) || (c == '.' && i + 1 < n && IsDigit(sql[i + 1]))) {
      size_t j = i;
      bool seen_dot = false;
      bool seen_exp = false;
      while (j < n) {
        const char d = sql[j];
        if (IsDigit(d)) {
          ++j;
        } else if (d == '.' && !seen_dot && !seen_exp) {
          // `1.` followed by an identifier char would be table.column on a
          // numeric alias — not legal here, so consume greedily.
          seen_dot = true;
          ++j;
        } else if ((d == 'e' || d == 'E') && !seen_exp && j + 1 < n &&
                   (IsDigit(sql[j + 1]) ||
                    ((sql[j + 1] == '+' || sql[j + 1] == '-') && j + 2 < n &&
                     IsDigit(sql[j + 2])))) {
          seen_exp = true;
          j += 2;
        } else {
          break;
        }
      }
      tok.type = TokenType::kNumber;
      tok.text = sql.substr(i, j - i);
      tok.number = ParseNumber(tok.text);
      i = j;
    } else if (c == '\'') {
      size_t j = i + 1;
      bool closed = false;
      while (j < n) {
        if (sql[j] == '\'') {
          if (j + 1 < n && sql[j + 1] == '\'') {  // escaped quote
            j += 2;
          } else {
            closed = true;
            break;
          }
        } else {
          ++j;
        }
      }
      if (!closed) {
        return Status::ParseError(
            StrFormat("unterminated string literal at offset %zu", i));
      }
      tok.type = TokenType::kString;
      tok.text = sql.substr(i + 1, j - i - 1);
      i = j + 1;
    } else {
      // Multi-char symbols first.
      const std::string_view two = sql.substr(i, 2);
      if (two == "<=" || two == ">=" || two == "<>" || two == "!=") {
        tok.type = TokenType::kSymbol;
        tok.text = two == "!=" ? std::string_view("<>") : two;
        i += 2;
      } else if (std::string_view("=<>+-*/,().;").find(c) !=
                 std::string_view::npos) {
        tok.type = TokenType::kSymbol;
        tok.text = sql.substr(i, 1);
        ++i;
      } else {
        return Status::ParseError(
            StrFormat("unexpected character '%c' at offset %zu", c, i));
      }
    }
    tokens.push_back(tok);
  }
  Token end;
  end.type = TokenType::kEnd;
  end.offset = n;
  tokens.push_back(end);
  return tokens;
}

}  // namespace isum::sql
