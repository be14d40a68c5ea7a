// Unit tests for the SQL lexer.

#include <gtest/gtest.h>

#include "sql/lexer.h"

namespace isum::sql {
namespace {

std::vector<Token> MustTokenize(std::string_view sql) {
  auto result = Tokenize(sql);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? std::move(result).value() : std::vector<Token>{};
}

TEST(Lexer, EmptyInputYieldsEnd) {
  auto tokens = MustTokenize("");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_TRUE(tokens[0].Is(TokenType::kEnd));
}

TEST(Lexer, IdentifiersAndKeywordsAreIdentifiers) {
  auto tokens = MustTokenize("SELECT foo _bar b2z");
  ASSERT_EQ(tokens.size(), 5u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(tokens[i].Is(TokenType::kIdentifier));
  EXPECT_TRUE(tokens[0].Is("select"));  // case-insensitive match
  EXPECT_EQ(tokens[2].text, "_bar");
}

TEST(Lexer, NumbersIntegerFloatExponent) {
  auto tokens = MustTokenize("1 2.5 .75 1e3 2.5E-2");
  EXPECT_DOUBLE_EQ(tokens[0].number, 1.0);
  EXPECT_DOUBLE_EQ(tokens[1].number, 2.5);
  EXPECT_DOUBLE_EQ(tokens[2].number, 0.75);
  EXPECT_DOUBLE_EQ(tokens[3].number, 1000.0);
  EXPECT_DOUBLE_EQ(tokens[4].number, 0.025);
}

TEST(Lexer, StringsWithEscapedQuotes) {
  auto tokens = MustTokenize("'hello' 'it''s'");
  EXPECT_TRUE(tokens[0].Is(TokenType::kString));
  EXPECT_EQ(tokens[0].text, "hello");
  EXPECT_EQ(tokens[1].StringValue(), "it's");
}

TEST(Lexer, UnterminatedStringIsError) {
  auto result = Tokenize("SELECT 'oops");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
}

TEST(Lexer, MultiCharSymbols) {
  auto tokens = MustTokenize("<= >= <> != = < >");
  EXPECT_EQ(tokens[0].text, "<=");
  EXPECT_EQ(tokens[1].text, ">=");
  EXPECT_EQ(tokens[2].text, "<>");
  EXPECT_EQ(tokens[3].text, "<>");  // != normalizes to <>
  EXPECT_EQ(tokens[4].text, "=");
}

TEST(Lexer, LineCommentsSkipped) {
  auto tokens = MustTokenize("SELECT -- comment here\n 1");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_TRUE(tokens[1].Is(TokenType::kNumber));
}

TEST(Lexer, DotSeparatesQualifiedNames) {
  auto tokens = MustTokenize("t.col");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0].text, "t");
  EXPECT_EQ(tokens[1].text, ".");
  EXPECT_EQ(tokens[2].text, "col");
}

TEST(Lexer, BadCharacterIsError) {
  auto result = Tokenize("SELECT @x");
  ASSERT_FALSE(result.ok());
}

TEST(Lexer, OffsetsRecorded) {
  auto tokens = MustTokenize("ab  cd");
  EXPECT_EQ(tokens[0].offset, 0u);
  EXPECT_EQ(tokens[1].offset, 4u);
}

TEST(Lexer, TokenIsNeverMatchesForNonSymbolTypes) {
  auto tokens = MustTokenize("'select' 42");
  EXPECT_FALSE(tokens[0].Is("select"));  // strings never keyword-match
  EXPECT_FALSE(tokens[1].Is("42"));
}

}  // namespace
}  // namespace isum::sql
