#include "sql/parser.h"

#include <utility>

#include "common/string_util.h"
#include "sql/lexer.h"

namespace isum::sql {

namespace {

/// Reserved words that terminate an alias-free expression context; a bare
/// identifier in alias position must not be one of these.
bool IsReservedKeyword(std::string_view word) {
  static constexpr std::string_view kReserved[] = {
      "select", "from",  "where", "group",  "by",    "having", "order",
      "limit",  "and",   "or",    "not",    "in",    "between", "like",
      "is",     "null",  "as",    "join",   "inner", "left",    "right",
      "outer",  "on",    "asc",   "desc",   "distinct", "exists"};
  for (std::string_view k : kReserved) {
    if (EqualsIgnoreCase(word, k)) return true;
  }
  return false;
}

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  StatusOr<SelectStatement> ParseStatement();
  StatusOr<SelectStatement> ParseSelectBody();

 private:
  const Token& Peek(size_t ahead = 0) const {
    const size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_++]; }
  bool Match(std::string_view spelling) {
    if (Peek().Is(spelling)) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status ExpectSymbol(std::string_view spelling) {
    if (Match(spelling)) return Status::OK();
    return Status::ParseError(StrFormat(
        "expected '%.*s' at offset %zu, got '%.*s'",
        static_cast<int>(spelling.size()), spelling.data(), Peek().offset,
        static_cast<int>(Peek().text.size()), Peek().text.data()));
  }
  Status ExpectKeyword(std::string_view kw) { return ExpectSymbol(kw); }

  StatusOr<std::vector<TableRef>> ParseFromClause(
      std::vector<ExpressionPtr>* join_conjuncts);
  StatusOr<TableRef> ParseTableRef();
  StatusOr<ExpressionPtr> ParseExpression();
  StatusOr<ExpressionPtr> ParseOr();
  StatusOr<ExpressionPtr> ParseAnd();
  StatusOr<ExpressionPtr> ParseNot();
  StatusOr<ExpressionPtr> ParseExists(bool negated);
  StatusOr<ExpressionPtr> ParsePredicate();
  StatusOr<ExpressionPtr> ParseAdditive();
  StatusOr<ExpressionPtr> ParseMultiplicative();
  StatusOr<ExpressionPtr> ParseUnary();
  StatusOr<ExpressionPtr> ParsePrimary();

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int expr_depth_ = 0;
};

// Every recursive cycle in the grammar (parenthesized expressions, function
// arguments, subqueries) re-enters ParseExpression, so bounding it here
// bounds total parser recursion. 200 levels is far beyond any real workload
// query but shallow enough that the ~9 frames per level stay well inside the
// stack even with sanitizer-inflated frame sizes.
constexpr int kMaxExpressionDepth = 200;

StatusOr<ExpressionPtr> Parser::ParseExpression() {
  if (expr_depth_ >= kMaxExpressionDepth) {
    return Status::ParseError(
        StrFormat("expression nesting deeper than %d levels at offset %zu",
                  kMaxExpressionDepth, Peek().offset));
  }
  ++expr_depth_;
  StatusOr<ExpressionPtr> result = ParseOr();
  --expr_depth_;
  return result;
}

StatusOr<SelectStatement> Parser::ParseStatement() {
  ISUM_ASSIGN_OR_RETURN(SelectStatement stmt, ParseSelectBody());
  Match(";");
  if (!Peek().Is(TokenType::kEnd)) {
    return Status::ParseError(StrFormat(
        "trailing input at offset %zu: '%.*s'", Peek().offset,
        static_cast<int>(Peek().text.size()), Peek().text.data()));
  }
  return stmt;
}

StatusOr<SelectStatement> Parser::ParseSelectBody() {
  ISUM_RETURN_IF_ERROR(ExpectKeyword("select"));
  SelectStatement stmt;
  stmt.distinct = Match("distinct");

  // Select list.
  if (Peek().Is("*") &&
      !(Peek(1).Is(TokenType::kIdentifier) || Peek(1).Is("("))) {
    Advance();
    SelectItem item;
    item.expr = std::make_unique<StarExpression>();
    stmt.select_list.push_back(std::move(item));
  } else {
    for (;;) {
      SelectItem item;
      ISUM_ASSIGN_OR_RETURN(item.expr, ParseExpression());
      if (Match("as")) {
        if (!Peek().Is(TokenType::kIdentifier)) {
          return Status::ParseError(
              StrFormat("expected alias after AS at offset %zu", Peek().offset));
        }
        item.alias = std::string(Advance().text);
      } else if (Peek().Is(TokenType::kIdentifier) &&
                 !IsReservedKeyword(Peek().text)) {
        item.alias = std::string(Advance().text);
      }
      stmt.select_list.push_back(std::move(item));
      if (!Match(",")) break;
    }
  }

  ISUM_RETURN_IF_ERROR(ExpectKeyword("from"));
  std::vector<ExpressionPtr> join_conjuncts;
  ISUM_ASSIGN_OR_RETURN(stmt.from, ParseFromClause(&join_conjuncts));

  if (Match("where")) {
    ISUM_ASSIGN_OR_RETURN(stmt.where, ParseExpression());
  }
  // Fold JOIN ... ON conjuncts into WHERE.
  for (auto& conjunct : join_conjuncts) {
    if (stmt.where == nullptr) {
      stmt.where = std::move(conjunct);
    } else {
      stmt.where = std::make_unique<BinaryExpression>(
          BinaryOp::kAnd, std::move(stmt.where), std::move(conjunct));
    }
  }

  if (Match("group")) {
    ISUM_RETURN_IF_ERROR(ExpectKeyword("by"));
    for (;;) {
      ISUM_ASSIGN_OR_RETURN(ExpressionPtr e, ParseExpression());
      stmt.group_by.push_back(std::move(e));
      if (!Match(",")) break;
    }
  }

  if (Match("having")) {
    ISUM_ASSIGN_OR_RETURN(stmt.having, ParseExpression());
  }

  if (Match("order")) {
    ISUM_RETURN_IF_ERROR(ExpectKeyword("by"));
    for (;;) {
      OrderByItem item;
      ISUM_ASSIGN_OR_RETURN(item.expr, ParseExpression());
      if (Match("desc")) {
        item.descending = true;
      } else {
        Match("asc");
      }
      stmt.order_by.push_back(std::move(item));
      if (!Match(",")) break;
    }
  }

  if (Match("limit")) {
    if (!Peek().Is(TokenType::kNumber)) {
      return Status::ParseError(
          StrFormat("expected number after LIMIT at offset %zu", Peek().offset));
    }
    stmt.limit = static_cast<int64_t>(Advance().number);
  }

  return stmt;
}

StatusOr<std::vector<TableRef>> Parser::ParseFromClause(
    std::vector<ExpressionPtr>* join_conjuncts) {
  std::vector<TableRef> refs;
  ISUM_ASSIGN_OR_RETURN(TableRef first, ParseTableRef());
  refs.push_back(std::move(first));
  for (;;) {
    if (Match(",")) {
      ISUM_ASSIGN_OR_RETURN(TableRef ref, ParseTableRef());
      refs.push_back(std::move(ref));
      continue;
    }
    bool is_join = false;
    if (Peek().Is("join")) {
      Advance();
      is_join = true;
    } else if (Peek().Is("inner") || Peek().Is("left") || Peek().Is("right")) {
      Advance();
      Match("outer");
      ISUM_RETURN_IF_ERROR(ExpectKeyword("join"));
      is_join = true;
    }
    if (!is_join) break;
    ISUM_ASSIGN_OR_RETURN(TableRef ref, ParseTableRef());
    refs.push_back(std::move(ref));
    if (Match("on")) {
      ISUM_ASSIGN_OR_RETURN(ExpressionPtr cond, ParseExpression());
      join_conjuncts->push_back(std::move(cond));
    }
  }
  return refs;
}

StatusOr<TableRef> Parser::ParseTableRef() {
  if (!Peek().Is(TokenType::kIdentifier)) {
    return Status::ParseError(
        StrFormat("expected table name at offset %zu", Peek().offset));
  }
  TableRef ref;
  ref.table_name = std::string(Advance().text);
  if (Match("as")) {
    if (!Peek().Is(TokenType::kIdentifier)) {
      return Status::ParseError(
          StrFormat("expected alias after AS at offset %zu", Peek().offset));
    }
    ref.alias = std::string(Advance().text);
  } else if (Peek().Is(TokenType::kIdentifier) &&
             !IsReservedKeyword(Peek().text)) {
    ref.alias = std::string(Advance().text);
  }
  return ref;
}

StatusOr<ExpressionPtr> Parser::ParseOr() {
  ISUM_ASSIGN_OR_RETURN(ExpressionPtr lhs, ParseAnd());
  while (Match("or")) {
    ISUM_ASSIGN_OR_RETURN(ExpressionPtr rhs, ParseAnd());
    lhs = std::make_unique<BinaryExpression>(BinaryOp::kOr, std::move(lhs),
                                             std::move(rhs));
  }
  return lhs;
}

StatusOr<ExpressionPtr> Parser::ParseAnd() {
  ISUM_ASSIGN_OR_RETURN(ExpressionPtr lhs, ParseNot());
  while (Match("and")) {
    ISUM_ASSIGN_OR_RETURN(ExpressionPtr rhs, ParseNot());
    lhs = std::make_unique<BinaryExpression>(BinaryOp::kAnd, std::move(lhs),
                                             std::move(rhs));
  }
  return lhs;
}

StatusOr<ExpressionPtr> Parser::ParseNot() {
  if (Match("not")) {
    if (Peek().Is("exists")) {
      return ParseExists(/*negated=*/true);
    }
    ISUM_ASSIGN_OR_RETURN(ExpressionPtr child, ParseNot());
    return ExpressionPtr(std::make_unique<UnaryNotExpression>(std::move(child)));
  }
  return ParsePredicate();
}

StatusOr<ExpressionPtr> Parser::ParseExists(bool negated) {
  ISUM_RETURN_IF_ERROR(ExpectKeyword("exists"));
  ISUM_RETURN_IF_ERROR(ExpectSymbol("("));
  ISUM_ASSIGN_OR_RETURN(SelectStatement subquery, ParseSelectBody());
  ISUM_RETURN_IF_ERROR(ExpectSymbol(")"));
  return ExpressionPtr(std::make_unique<ExistsExpression>(
      std::make_unique<SelectStatement>(std::move(subquery)), negated));
}

StatusOr<ExpressionPtr> Parser::ParsePredicate() {
  if (Peek().Is("exists")) return ParseExists(/*negated=*/false);
  ISUM_ASSIGN_OR_RETURN(ExpressionPtr lhs, ParseAdditive());

  const bool negated = Match("not");

  if (Match("in")) {
    ISUM_RETURN_IF_ERROR(ExpectSymbol("("));
    if (Peek().Is("select")) {
      ISUM_ASSIGN_OR_RETURN(SelectStatement subquery, ParseSelectBody());
      ISUM_RETURN_IF_ERROR(ExpectSymbol(")"));
      return ExpressionPtr(std::make_unique<InSubqueryExpression>(
          std::move(lhs),
          std::make_unique<SelectStatement>(std::move(subquery)), negated));
    }
    std::vector<ExpressionPtr> values;
    for (;;) {
      ISUM_ASSIGN_OR_RETURN(ExpressionPtr v, ParseExpression());
      values.push_back(std::move(v));
      if (!Match(",")) break;
    }
    ISUM_RETURN_IF_ERROR(ExpectSymbol(")"));
    return ExpressionPtr(std::make_unique<InExpression>(
        std::move(lhs), std::move(values), negated));
  }
  if (Match("between")) {
    ISUM_ASSIGN_OR_RETURN(ExpressionPtr lo, ParseAdditive());
    ISUM_RETURN_IF_ERROR(ExpectKeyword("and"));
    ISUM_ASSIGN_OR_RETURN(ExpressionPtr hi, ParseAdditive());
    return ExpressionPtr(std::make_unique<BetweenExpression>(
        std::move(lhs), std::move(lo), std::move(hi), negated));
  }
  if (Match("like")) {
    if (!Peek().Is(TokenType::kString)) {
      return Status::ParseError(
          StrFormat("expected pattern after LIKE at offset %zu", Peek().offset));
    }
    std::string pattern = Advance().StringValue();
    return ExpressionPtr(std::make_unique<LikeExpression>(
        std::move(lhs), std::move(pattern), negated));
  }
  if (negated) {
    return Status::ParseError(StrFormat(
        "expected IN/BETWEEN/LIKE after NOT at offset %zu", Peek().offset));
  }
  if (Match("is")) {
    const bool is_not = Match("not");
    ISUM_RETURN_IF_ERROR(ExpectKeyword("null"));
    return ExpressionPtr(
        std::make_unique<IsNullExpression>(std::move(lhs), is_not));
  }

  // Comparison?
  static constexpr std::pair<std::string_view, BinaryOp> kComparisons[] = {
      {"<=", BinaryOp::kLe}, {">=", BinaryOp::kGe}, {"<>", BinaryOp::kNotEq},
      {"=", BinaryOp::kEq},  {"<", BinaryOp::kLt},  {">", BinaryOp::kGt},
  };
  for (const auto& [spelling, op] : kComparisons) {
    if (Match(spelling)) {
      ISUM_ASSIGN_OR_RETURN(ExpressionPtr rhs, ParseAdditive());
      return ExpressionPtr(std::make_unique<BinaryExpression>(
          op, std::move(lhs), std::move(rhs)));
    }
  }
  return lhs;
}

StatusOr<ExpressionPtr> Parser::ParseAdditive() {
  ISUM_ASSIGN_OR_RETURN(ExpressionPtr lhs, ParseMultiplicative());
  for (;;) {
    BinaryOp op;
    if (Match("+")) {
      op = BinaryOp::kPlus;
    } else if (Match("-")) {
      op = BinaryOp::kMinus;
    } else {
      break;
    }
    ISUM_ASSIGN_OR_RETURN(ExpressionPtr rhs, ParseMultiplicative());
    lhs = std::make_unique<BinaryExpression>(op, std::move(lhs), std::move(rhs));
  }
  return lhs;
}

StatusOr<ExpressionPtr> Parser::ParseMultiplicative() {
  ISUM_ASSIGN_OR_RETURN(ExpressionPtr lhs, ParseUnary());
  for (;;) {
    BinaryOp op;
    if (Match("*")) {
      op = BinaryOp::kMul;
    } else if (Match("/")) {
      op = BinaryOp::kDiv;
    } else {
      break;
    }
    ISUM_ASSIGN_OR_RETURN(ExpressionPtr rhs, ParseUnary());
    lhs = std::make_unique<BinaryExpression>(op, std::move(lhs), std::move(rhs));
  }
  return lhs;
}

StatusOr<ExpressionPtr> Parser::ParseUnary() {
  if (Match("-")) {
    ISUM_ASSIGN_OR_RETURN(ExpressionPtr child, ParseUnary());
    // Fold negation into numeric literals; otherwise 0 - child.
    if (child->kind() == ExpressionKind::kLiteral) {
      auto* lit = static_cast<LiteralExpression*>(child.get());
      if (lit->literal_kind() == LiteralKind::kNumber) {
        return ExpressionPtr(LiteralExpression::Number(-lit->number()));
      }
    }
    return ExpressionPtr(std::make_unique<BinaryExpression>(
        BinaryOp::kMinus, LiteralExpression::Number(0.0), std::move(child)));
  }
  return ParsePrimary();
}

StatusOr<ExpressionPtr> Parser::ParsePrimary() {
  const Token& tok = Peek();
  if (tok.Is(TokenType::kNumber)) {
    Advance();
    return ExpressionPtr(LiteralExpression::Number(tok.number));
  }
  if (tok.Is(TokenType::kString)) {
    Advance();
    return ExpressionPtr(LiteralExpression::String(tok.StringValue()));
  }
  if (tok.Is("null")) {
    Advance();
    return ExpressionPtr(LiteralExpression::Null());
  }
  if (tok.Is("(")) {
    Advance();
    ISUM_ASSIGN_OR_RETURN(ExpressionPtr inner, ParseExpression());
    ISUM_RETURN_IF_ERROR(ExpectSymbol(")"));
    return inner;
  }
  if (tok.Is("*")) {
    Advance();
    return ExpressionPtr(std::make_unique<StarExpression>());
  }
  if (tok.Is(TokenType::kIdentifier)) {
    // Function call?
    if (Peek(1).Is("(")) {
      std::string name = ToUpper(Advance().text);
      Advance();  // '('
      bool distinct = Match("distinct");
      std::vector<ExpressionPtr> args;
      if (!Peek().Is(")")) {
        for (;;) {
          ISUM_ASSIGN_OR_RETURN(ExpressionPtr arg, ParseExpression());
          args.push_back(std::move(arg));
          if (!Match(",")) break;
        }
      }
      ISUM_RETURN_IF_ERROR(ExpectSymbol(")"));
      return ExpressionPtr(std::make_unique<FunctionCallExpression>(
          std::move(name), std::move(args), distinct));
    }
    // Column reference, possibly qualified.
    std::string first(Advance().text);
    if (Match(".")) {
      if (!Peek().Is(TokenType::kIdentifier)) {
        return Status::ParseError(StrFormat(
            "expected column after '%s.' at offset %zu", first.c_str(),
            Peek().offset));
      }
      std::string column(Advance().text);
      return ExpressionPtr(std::make_unique<ColumnRefExpression>(
          std::move(first), std::move(column)));
    }
    return ExpressionPtr(
        std::make_unique<ColumnRefExpression>("", std::move(first)));
  }
  return Status::ParseError(StrFormat("unexpected token '%.*s' at offset %zu",
                                      static_cast<int>(tok.text.size()),
                                      tok.text.data(), tok.offset));
}

}  // namespace

StatusOr<SelectStatement> ParseSelect(std::string_view sql) {
  ISUM_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens));
  return parser.ParseStatement();
}

}  // namespace isum::sql
