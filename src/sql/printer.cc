#include "sql/printer.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <string_view>

#include "common/hash.h"

namespace isum::sql {

namespace {

/// Appends printed text to a string.
class StringSink {
 public:
  explicit StringSink(std::string* out) : out_(*out) {}
  void Put(std::string_view text) { out_.append(text); }
  void Put(char c) { out_.push_back(c); }

 private:
  std::string& out_;
};

/// Feeds printed text straight into HashBytes' FNV-1a, byte for byte, so
/// hashing the text never materializes it.
class HashSink {
 public:
  void Put(std::string_view text) {
    for (char c : text) Put(c);
  }
  void Put(char c) { hash_ = FnvStep(hash_, static_cast<unsigned char>(c)); }
  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = kFnvOffsetBasis;
};

/// Prints SQL text for AST nodes into `Sink`.
template <typename Sink>
class Printer {
 public:
  Printer(LiteralMode mode, Sink* sink)
      : masked_(mode == LiteralMode::kMasked), out_(*sink) {}

  void Statement(const SelectStatement& stmt);
  void Expr(const Expression& expr);

 private:
  void Put(std::string_view text) { out_.Put(text); }

  template <typename T>
  void PutChars(T value) {
    char buf[32];
    const auto result = std::to_chars(buf, buf + sizeof(buf), value);
    out_.Put(std::string_view(buf, result.ptr - buf));
  }

  /// Integers below 1e15 print as integers; anything else in the shortest
  /// form that parses back to the same double. Infinities print as an
  /// overflowing literal, which the lexer reads back as infinity.
  void Number(double v) {
    if (!std::isfinite(v)) {
      Put(v > 0 ? "1e999" : "-1e999");
    } else if (std::floor(v) == v && std::abs(v) < 1e15) {
      PutChars(static_cast<long long>(v));
    } else {
      PutChars(v);
    }
  }

  void Quoted(std::string_view s) {
    out_.Put('\'');
    for (char c : s) {
      if (c == '\'') out_.Put('\'');
      out_.Put(c);
    }
    out_.Put('\'');
  }

  /// A literal value, or the '?' every literal prints as when masked.
  void Literal(const LiteralExpression& e) {
    if (masked_) {
      Put("'?'");
      return;
    }
    switch (e.literal_kind()) {
      case LiteralKind::kNumber:
        Number(e.number());
        return;
      case LiteralKind::kString:
        Quoted(e.string_value());
        return;
      case LiteralKind::kNull:
        Put("NULL");
        return;
    }
  }

  template <typename List, typename Fn>
  void Separated(const List& items, Fn&& print_one) {
    for (size_t i = 0; i < items.size(); ++i) {
      if (i > 0) Put(", ");
      print_one(items[i]);
    }
  }

  const bool masked_;
  Sink& out_;
};

template <typename Sink>
void Printer<Sink>::Expr(const Expression& expr) {
  switch (expr.kind()) {
    case ExpressionKind::kColumnRef: {
      const auto& e = static_cast<const ColumnRefExpression&>(expr);
      if (!e.table().empty()) {
        Put(e.table());
        Put(".");
      }
      Put(e.column());
      return;
    }
    case ExpressionKind::kLiteral:
      Literal(static_cast<const LiteralExpression&>(expr));
      return;
    case ExpressionKind::kBinary: {
      const auto& e = static_cast<const BinaryExpression&>(expr);
      Put("(");
      Expr(e.lhs());
      Put(" ");
      Put(BinaryOpToString(e.op()));
      Put(" ");
      Expr(e.rhs());
      Put(")");
      return;
    }
    case ExpressionKind::kUnaryNot: {
      const auto& e = static_cast<const UnaryNotExpression&>(expr);
      Put("NOT (");
      Expr(e.child());
      Put(")");
      return;
    }
    case ExpressionKind::kIn: {
      const auto& e = static_cast<const InExpression&>(expr);
      Expr(e.operand());
      Put(e.negated() ? " NOT IN (" : " IN (");
      Separated(e.values(), [this](const ExpressionPtr& v) { Expr(*v); });
      Put(")");
      return;
    }
    case ExpressionKind::kBetween: {
      const auto& e = static_cast<const BetweenExpression&>(expr);
      Expr(e.operand());
      Put(e.negated() ? " NOT BETWEEN " : " BETWEEN ");
      Expr(e.lo());
      Put(" AND ");
      Expr(e.hi());
      return;
    }
    case ExpressionKind::kLike: {
      const auto& e = static_cast<const LikeExpression&>(expr);
      Expr(e.operand());
      Put(e.negated() ? " NOT LIKE " : " LIKE ");
      Quoted(masked_ ? std::string_view("?") : std::string_view(e.pattern()));
      return;
    }
    case ExpressionKind::kIsNull: {
      const auto& e = static_cast<const IsNullExpression&>(expr);
      Expr(e.operand());
      Put(e.negated() ? " IS NOT NULL" : " IS NULL");
      return;
    }
    case ExpressionKind::kStar:
      Put("*");
      return;
    case ExpressionKind::kExists: {
      const auto& e = static_cast<const ExistsExpression&>(expr);
      Put(e.negated() ? "NOT EXISTS (" : "EXISTS (");
      Statement(e.subquery());
      Put(")");
      return;
    }
    case ExpressionKind::kInSubquery: {
      const auto& e = static_cast<const InSubqueryExpression&>(expr);
      Expr(e.operand());
      Put(e.negated() ? " NOT IN (" : " IN (");
      Statement(e.subquery());
      Put(")");
      return;
    }
    case ExpressionKind::kFunctionCall: {
      const auto& e = static_cast<const FunctionCallExpression&>(expr);
      Put(e.name());
      Put("(");
      if (e.distinct()) Put("DISTINCT ");
      Separated(e.args(), [this](const ExpressionPtr& a) { Expr(*a); });
      Put(")");
      return;
    }
  }
  Put("?");
}

template <typename Sink>
void Printer<Sink>::Statement(const SelectStatement& stmt) {
  Put("SELECT ");
  if (stmt.distinct) Put("DISTINCT ");
  Separated(stmt.select_list, [this](const SelectItem& item) {
    Expr(*item.expr);
    if (!item.alias.empty()) {
      Put(" AS ");
      Put(item.alias);
    }
  });
  Put(" FROM ");
  Separated(stmt.from, [this](const TableRef& ref) {
    Put(ref.table_name);
    if (!ref.alias.empty()) {
      Put(" ");
      Put(ref.alias);
    }
  });
  if (stmt.where != nullptr) {
    Put(" WHERE ");
    Expr(*stmt.where);
  }
  if (!stmt.group_by.empty()) {
    Put(" GROUP BY ");
    Separated(stmt.group_by, [this](const ExpressionPtr& g) { Expr(*g); });
  }
  if (stmt.having != nullptr) {
    Put(" HAVING ");
    Expr(*stmt.having);
  }
  if (!stmt.order_by.empty()) {
    Put(" ORDER BY ");
    Separated(stmt.order_by, [this](const OrderByItem& o) {
      Expr(*o.expr);
      if (o.descending) Put(" DESC");
    });
  }
  if (stmt.limit.has_value()) {
    Put(" LIMIT ");
    PutChars(masked_ ? int64_t{0} : *stmt.limit);
  }
}

}  // namespace

std::string ExpressionToSql(const Expression& expr) {
  std::string out;
  StringSink sink(&out);
  Printer(LiteralMode::kValue, &sink).Expr(expr);
  return out;
}

std::string StatementToSql(const SelectStatement& stmt) {
  std::string out;
  AppendStatementSql(stmt, LiteralMode::kValue, &out);
  return out;
}

void AppendStatementSql(const SelectStatement& stmt, LiteralMode mode,
                        std::string* out) {
  StringSink sink(out);
  Printer(mode, &sink).Statement(stmt);
}

uint64_t HashStatementSql(const SelectStatement& stmt, LiteralMode mode) {
  HashSink sink;
  Printer(mode, &sink).Statement(stmt);
  return sink.hash();
}

}  // namespace isum::sql
