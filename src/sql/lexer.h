#ifndef ISUM_SQL_LEXER_H_
#define ISUM_SQL_LEXER_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/string_util.h"

namespace isum::sql {

/// Token categories produced by the lexer. Keywords are recognized in the
/// parser from kIdentifier tokens (case-insensitive), keeping the lexer small.
enum class TokenType {
  kIdentifier,
  kNumber,
  kString,
  kSymbol,  ///< one of: = <> != < <= > >= + - * / , ( ) . ;
  kEnd,
};

/// One lexed token with its source offset (for error messages). Tokens view
/// the input they were lexed from and must not outlive it.
struct Token {
  TokenType type = TokenType::kEnd;
  /// Identifier, number or symbol spelling as written (`!=` reads as `<>`).
  /// For a string literal, the raw contents between the quotes, with any
  /// doubled quote `''` still doubled; StringValue() decodes it.
  std::string_view text;
  double number = 0.0;  ///< valid when type == kNumber
  size_t offset = 0;

  bool Is(TokenType t) const { return type == t; }
  /// Case-insensitive keyword/symbol match; allocation-free. Numbers,
  /// strings and the end token never match.
  bool Is(std::string_view spelling) const {
    return (type == TokenType::kIdentifier || type == TokenType::kSymbol) &&
           EqualsIgnoreCase(text, spelling);
  }
  /// The value of a kString token: `text` with `''` collapsed to `'`.
  std::string StringValue() const;
};

/// Tokenizes `sql`; returns ParseError on malformed input (unterminated
/// string, bad character). The final token is always kEnd.
StatusOr<std::vector<Token>> Tokenize(std::string_view sql);

}  // namespace isum::sql

#endif  // ISUM_SQL_LEXER_H_
