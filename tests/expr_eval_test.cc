// Tests for the executor's expression interpreter (exact evaluation of
// retained complex predicates).

#include <gtest/gtest.h>

#include <unordered_map>

#include "catalog/schema_builder.h"
#include "exec/expr_eval.h"
#include "sql/parser.h"

namespace isum::exec {
namespace {

class ExprEvalTest : public ::testing::Test {
 protected:
  ExprEvalTest() {
    catalog::SchemaBuilder b(&cat_);
    b.Table("t", 10)
        .Col("a", catalog::ColumnType::kInt)
        .Col("b", catalog::ColumnType::kInt);
    b.Table("u", 10).Col("x", catalog::ColumnType::kInt);
    aliases_["t"] = cat_.FindTable("t")->id();
    aliases_["u"] = cat_.FindTable("u")->id();
    values_[cat_.ResolveColumn("t", "a")] = 3.0;
    values_[cat_.ResolveColumn("t", "b")] = 7.0;
    values_[cat_.ResolveColumn("u", "x")] = 7.0;
  }

  /// Evaluates the WHERE clause of "SELECT * FROM t, u WHERE <cond>".
  std::optional<bool> Eval(const std::string& condition) {
    auto stmt = sql::ParseSelect("SELECT * FROM t, u WHERE " + condition);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    ExpressionEvaluator evaluator(&cat_, &aliases_);
    return evaluator.Boolean(
        *stmt->where, [this](catalog::ColumnId c) -> std::optional<double> {
          auto it = values_.find(c);
          if (it == values_.end()) return std::nullopt;
          return it->second;
        });
  }

  catalog::Catalog cat_;
  CaseInsensitiveMap<catalog::TableId> aliases_;
  std::unordered_map<catalog::ColumnId, double> values_;
};

TEST_F(ExprEvalTest, Comparisons) {
  EXPECT_EQ(Eval("a = 3"), true);
  EXPECT_EQ(Eval("a <> 3"), false);
  EXPECT_EQ(Eval("a < b"), true);          // 3 < 7, column vs column
  EXPECT_EQ(Eval("t.b >= u.x"), true);     // qualified, cross-table
  EXPECT_EQ(Eval("b > 100"), false);
}

TEST_F(ExprEvalTest, Arithmetic) {
  EXPECT_EQ(Eval("a + b = 10"), true);
  EXPECT_EQ(Eval("b - a > 3"), true);
  EXPECT_EQ(Eval("a * b = 21"), true);
  EXPECT_EQ(Eval("b / a > 2"), true);
  EXPECT_EQ(Eval("a / 0 = 1"), std::nullopt);  // division by zero: opaque
}

TEST_F(ExprEvalTest, BooleanConnectives) {
  EXPECT_EQ(Eval("a = 3 AND b = 7"), true);
  EXPECT_EQ(Eval("a = 3 AND b = 8"), false);
  EXPECT_EQ(Eval("a = 9 OR b = 7"), true);
  EXPECT_EQ(Eval("NOT a = 3"), false);
  EXPECT_EQ(Eval("NOT (a = 1 OR b = 2)"), true);
}

TEST_F(ExprEvalTest, InAndBetween) {
  EXPECT_EQ(Eval("a IN (1, 2, 3)"), true);
  EXPECT_EQ(Eval("a NOT IN (1, 2, 3)"), false);
  EXPECT_EQ(Eval("b BETWEEN 5 AND 9"), true);
  EXPECT_EQ(Eval("b NOT BETWEEN 5 AND 9"), false);
  EXPECT_EQ(Eval("a BETWEEN b AND 10"), false);  // bounds may be columns
}

TEST_F(ExprEvalTest, OpaqueConstructsReturnNullopt) {
  EXPECT_EQ(Eval("a LIKE 'x%'"), std::nullopt);
  EXPECT_EQ(Eval("a IS NULL"), std::nullopt);
  EXPECT_EQ(Eval("nosuch = 1"), std::nullopt);
  EXPECT_EQ(Eval("t.nosuch = 1"), std::nullopt);
}

TEST_F(ExprEvalTest, DateLiteralsEncode) {
  values_[cat_.ResolveColumn("t", "a")] = 18262.0;  // 2020-01-01
  EXPECT_EQ(Eval("a = '2020-01-01'"), true);
  EXPECT_EQ(Eval("a < '2021-01-01'"), true);
}

TEST_F(ExprEvalTest, MissingValueIsOpaqueNotFalse) {
  // The ValueFn can decline (e.g. column of a table not in the tuple yet).
  auto stmt = sql::ParseSelect("SELECT * FROM t, u WHERE u.x = 7");
  ExpressionEvaluator evaluator(&cat_, &aliases_);
  auto verdict = evaluator.Boolean(
      *stmt->where,
      [](catalog::ColumnId) -> std::optional<double> { return std::nullopt; });
  EXPECT_EQ(verdict, std::nullopt);
}

}  // namespace
}  // namespace isum::exec
