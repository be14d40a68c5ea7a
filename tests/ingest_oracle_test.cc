// Same-result oracles for SQL ingest. Workload::AddQuery tokenizes without
// copying, hashes templates by printing literal-masked SQL straight from the
// AST, and binds without cloning statements that have no subquery. On every
// query of every generator:
//   - TemplateHash equals a test-local copy of the clone-mask-print-hash path
//     it replaced, so template partitions cannot move;
//   - print -> parse -> print is a fixed point on one instance per template;
//   - a digest over every BoundQuery field and the base cost equals the value
//     recorded before ingest was rewritten.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "sql/templatizer.h"
#include "workload/workload_factory.h"

namespace isum::sql {
namespace {

// --- The template path as it stood before the masking printer: deep-copy
// the statement with every literal and LIKE pattern replaced by '?' and
// LIMIT by 0, print it, and hash the text. ---

SelectStatement CloneMasked(const SelectStatement& stmt);

ExpressionPtr CloneMasked(const Expression& expr) {
  switch (expr.kind()) {
    case ExpressionKind::kLiteral:
      return LiteralExpression::String("?");
    case ExpressionKind::kColumnRef:
    case ExpressionKind::kStar:
      return expr.Clone();
    case ExpressionKind::kBinary: {
      const auto& e = static_cast<const BinaryExpression&>(expr);
      return std::make_unique<BinaryExpression>(e.op(), CloneMasked(e.lhs()),
                                                CloneMasked(e.rhs()));
    }
    case ExpressionKind::kUnaryNot: {
      const auto& e = static_cast<const UnaryNotExpression&>(expr);
      return std::make_unique<UnaryNotExpression>(CloneMasked(e.child()));
    }
    case ExpressionKind::kIn: {
      const auto& e = static_cast<const InExpression&>(expr);
      std::vector<ExpressionPtr> values;
      for (const auto& v : e.values()) values.push_back(CloneMasked(*v));
      return std::make_unique<InExpression>(CloneMasked(e.operand()),
                                            std::move(values), e.negated());
    }
    case ExpressionKind::kBetween: {
      const auto& e = static_cast<const BetweenExpression&>(expr);
      return std::make_unique<BetweenExpression>(
          CloneMasked(e.operand()), CloneMasked(e.lo()), CloneMasked(e.hi()),
          e.negated());
    }
    case ExpressionKind::kLike: {
      const auto& e = static_cast<const LikeExpression&>(expr);
      return std::make_unique<LikeExpression>(CloneMasked(e.operand()), "?",
                                              e.negated());
    }
    case ExpressionKind::kIsNull: {
      const auto& e = static_cast<const IsNullExpression&>(expr);
      return std::make_unique<IsNullExpression>(CloneMasked(e.operand()),
                                                e.negated());
    }
    case ExpressionKind::kFunctionCall: {
      const auto& e = static_cast<const FunctionCallExpression&>(expr);
      std::vector<ExpressionPtr> args;
      for (const auto& a : e.args()) args.push_back(CloneMasked(*a));
      return std::make_unique<FunctionCallExpression>(e.name(), std::move(args),
                                                      e.distinct());
    }
    case ExpressionKind::kExists: {
      const auto& e = static_cast<const ExistsExpression&>(expr);
      return std::make_unique<ExistsExpression>(
          std::make_unique<SelectStatement>(CloneMasked(e.subquery())),
          e.negated());
    }
    case ExpressionKind::kInSubquery: {
      const auto& e = static_cast<const InSubqueryExpression&>(expr);
      return std::make_unique<InSubqueryExpression>(
          CloneMasked(e.operand()),
          std::make_unique<SelectStatement>(CloneMasked(e.subquery())),
          e.negated());
    }
  }
  return expr.Clone();
}

SelectStatement CloneMasked(const SelectStatement& stmt) {
  SelectStatement masked;
  masked.distinct = stmt.distinct;
  for (const auto& item : stmt.select_list) {
    masked.select_list.push_back(SelectItem{CloneMasked(*item.expr), item.alias});
  }
  masked.from = stmt.from;
  masked.where = stmt.where ? CloneMasked(*stmt.where) : nullptr;
  for (const auto& g : stmt.group_by) masked.group_by.push_back(CloneMasked(*g));
  masked.having = stmt.having ? CloneMasked(*stmt.having) : nullptr;
  for (const auto& o : stmt.order_by) {
    masked.order_by.push_back(OrderByItem{CloneMasked(*o.expr), o.descending});
  }
  if (stmt.limit.has_value()) masked.limit = 0;
  return masked;
}

uint64_t ReferenceTemplateHash(const SelectStatement& stmt) {
  return HashBytes(StatementToSql(CloneMasked(stmt)));
}

// --- A digest over everything ingest produces for one query. ---

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

class Digest {
 public:
  void Add(uint64_t v) { h_ = HashCombine(h_, v); }
  void AddDouble(double v) { Add(Bits(v)); }
  void AddString(const std::string& s) { Add(HashBytes(s)); }
  void AddColumn(catalog::ColumnId c) {
    Add(static_cast<uint64_t>(static_cast<int64_t>(c.table)));
    Add(static_cast<uint64_t>(static_cast<int64_t>(c.column)));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0;
};

void AddStatement(const SelectStatement& stmt, Digest* d);

/// Structural walk, independent of the printer's literal formatting.
void AddExpression(const Expression& expr, Digest* d) {
  d->Add(static_cast<uint64_t>(expr.kind()));
  switch (expr.kind()) {
    case ExpressionKind::kColumnRef: {
      const auto& e = static_cast<const ColumnRefExpression&>(expr);
      d->AddString(e.table());
      d->AddString(e.column());
      return;
    }
    case ExpressionKind::kLiteral: {
      const auto& e = static_cast<const LiteralExpression&>(expr);
      d->Add(static_cast<uint64_t>(e.literal_kind()));
      d->AddDouble(e.number());
      d->AddString(e.string_value());
      return;
    }
    case ExpressionKind::kBinary: {
      const auto& e = static_cast<const BinaryExpression&>(expr);
      d->Add(static_cast<uint64_t>(e.op()));
      AddExpression(e.lhs(), d);
      AddExpression(e.rhs(), d);
      return;
    }
    case ExpressionKind::kUnaryNot:
      AddExpression(static_cast<const UnaryNotExpression&>(expr).child(), d);
      return;
    case ExpressionKind::kIn: {
      const auto& e = static_cast<const InExpression&>(expr);
      d->Add(e.negated());
      AddExpression(e.operand(), d);
      d->Add(e.values().size());
      for (const auto& v : e.values()) AddExpression(*v, d);
      return;
    }
    case ExpressionKind::kBetween: {
      const auto& e = static_cast<const BetweenExpression&>(expr);
      d->Add(e.negated());
      AddExpression(e.operand(), d);
      AddExpression(e.lo(), d);
      AddExpression(e.hi(), d);
      return;
    }
    case ExpressionKind::kLike: {
      const auto& e = static_cast<const LikeExpression&>(expr);
      d->Add(e.negated());
      AddExpression(e.operand(), d);
      d->AddString(e.pattern());
      return;
    }
    case ExpressionKind::kIsNull: {
      const auto& e = static_cast<const IsNullExpression&>(expr);
      d->Add(e.negated());
      AddExpression(e.operand(), d);
      return;
    }
    case ExpressionKind::kFunctionCall: {
      const auto& e = static_cast<const FunctionCallExpression&>(expr);
      d->AddString(e.name());
      d->Add(e.distinct());
      d->Add(e.args().size());
      for (const auto& a : e.args()) AddExpression(*a, d);
      return;
    }
    case ExpressionKind::kStar:
      return;
    case ExpressionKind::kExists: {
      const auto& e = static_cast<const ExistsExpression&>(expr);
      d->Add(e.negated());
      AddStatement(e.subquery(), d);
      return;
    }
    case ExpressionKind::kInSubquery: {
      const auto& e = static_cast<const InSubqueryExpression&>(expr);
      d->Add(e.negated());
      AddExpression(e.operand(), d);
      AddStatement(e.subquery(), d);
      return;
    }
  }
}

void AddStatement(const SelectStatement& stmt, Digest* d) {
  d->Add(stmt.distinct);
  d->Add(stmt.select_list.size());
  for (const SelectItem& item : stmt.select_list) {
    AddExpression(*item.expr, d);
    d->AddString(item.alias);
  }
  d->Add(stmt.from.size());
  for (const TableRef& ref : stmt.from) {
    d->AddString(ref.table_name);
    d->AddString(ref.alias);
  }
  d->Add(stmt.where != nullptr);
  if (stmt.where != nullptr) AddExpression(*stmt.where, d);
  d->Add(stmt.group_by.size());
  for (const auto& g : stmt.group_by) AddExpression(*g, d);
  d->Add(stmt.having != nullptr);
  if (stmt.having != nullptr) AddExpression(*stmt.having, d);
  d->Add(stmt.order_by.size());
  for (const OrderByItem& o : stmt.order_by) {
    AddExpression(*o.expr, d);
    d->Add(o.descending);
  }
  d->Add(stmt.limit.has_value() ? static_cast<uint64_t>(*stmt.limit) + 1 : 0);
}

void AddBoundQuery(const BoundQuery& q, Digest* d) {
  d->Add(q.tables.size());
  for (const BoundTableRef& t : q.tables) {
    d->Add(static_cast<uint64_t>(t.table));
    d->AddString(t.effective_name);
    d->Add(static_cast<uint64_t>(t.semantics));
  }
  d->Add(q.filters.size());
  for (const FilterPredicate& f : q.filters) {
    d->AddColumn(f.column);
    d->Add(static_cast<uint64_t>(f.op));
    d->Add(f.values.size());
    for (double v : f.values) d->AddDouble(v);
    d->AddDouble(f.selectivity);
    d->Add(f.sargable);
    d->Add(f.expr != nullptr);
    if (f.expr != nullptr) AddExpression(*f.expr, d);
  }
  d->Add(q.joins.size());
  for (const JoinPredicate& j : q.joins) {
    d->AddColumn(j.left);
    d->AddColumn(j.right);
    d->AddDouble(j.selectivity);
  }
  d->Add(q.complex_predicates.size());
  for (const ComplexPredicate& c : q.complex_predicates) {
    d->Add(c.columns.size());
    for (catalog::ColumnId col : c.columns) d->AddColumn(col);
    d->AddDouble(c.selectivity);
    d->Add(c.expr != nullptr);
    if (c.expr != nullptr) AddExpression(*c.expr, d);
  }
  d->Add(q.group_by_columns.size());
  for (catalog::ColumnId c : q.group_by_columns) d->AddColumn(c);
  d->Add(q.order_by_columns.size());
  for (const auto& [c, desc] : q.order_by_columns) {
    d->AddColumn(c);
    d->Add(desc);
  }
  d->Add(q.output_columns.size());
  for (catalog::ColumnId c : q.output_columns) d->AddColumn(c);
  d->Add(q.aggregates.size());
  for (const AggregateRef& a : q.aggregates) {
    d->Add(static_cast<uint64_t>(a.kind));
    d->AddColumn(a.argument);
    d->Add(a.distinct);
  }
  d->Add(q.distinct);
  d->Add(q.select_star);
  d->AddDouble(q.having_selectivity);
  d->Add(q.limit.has_value() ? static_cast<uint64_t>(*q.limit) + 1 : 0);
  d->Add(q.template_hash);
  const std::map<std::string, catalog::TableId> aliases(q.alias_map.begin(),
                                                         q.alias_map.end());
  for (const auto& [name, table] : aliases) {
    d->AddString(name);
    d->Add(static_cast<uint64_t>(table));
  }
  const std::vector<catalog::ColumnId> referenced = q.ReferencedColumns();
  d->Add(referenced.size());
  for (catalog::ColumnId c : referenced) d->AddColumn(c);
}

struct GeneratorCase {
  const char* name;
  int instances_per_template;
  /// Digest over every query's BoundQuery and base cost, recorded before
  /// ingest was rewritten (generator seed 42).
  uint64_t golden_digest;
};

// Names the case in test listings instead of dumping its bytes.
void PrintTo(const GeneratorCase& c, std::ostream* os) { *os << c.name; }

workload::GeneratedWorkload Generate(const GeneratorCase& c) {
  workload::GeneratorOptions options;
  options.instances_per_template = c.instances_per_template;
  return workload::MakeWorkloadByName(c.name, options);
}

class IngestOracle : public ::testing::TestWithParam<GeneratorCase> {};

TEST_P(IngestOracle, TemplateHashMatchesCloneMaskPrint) {
  const workload::GeneratedWorkload g = Generate(GetParam());
  const workload::Workload& wl = *g.workload;
  ASSERT_GT(wl.size(), 0u);
  std::unordered_map<uint64_t, std::vector<size_t>> reference;
  for (size_t i = 0; i < wl.size(); ++i) {
    auto stmt = ParseSelect(wl.query(i).sql);
    ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
    const uint64_t expected = ReferenceTemplateHash(*stmt);
    ASSERT_EQ(TemplateHash(*stmt), expected) << wl.query(i).sql;
    ASSERT_EQ(wl.query(i).template_hash, expected) << wl.query(i).sql;
    reference[expected].push_back(i);
  }
  EXPECT_EQ(wl.templates(), reference);
}

TEST_P(IngestOracle, PrintParsePrintIsStablePerTemplate) {
  const workload::GeneratedWorkload g = Generate(GetParam());
  const workload::Workload& wl = *g.workload;
  for (const auto& [hash, members] : wl.templates()) {
    const std::string& sql = wl.query(members.front()).sql;
    auto first = ParseSelect(sql);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    const std::string printed = StatementToSql(*first);
    auto second = ParseSelect(printed);
    ASSERT_TRUE(second.ok()) << second.status().ToString() << "\n" << printed;
    EXPECT_EQ(StatementToSql(*second), printed) << sql;
    EXPECT_EQ(TemplateHash(*second), hash) << sql;
  }
}

TEST_P(IngestOracle, BoundQueryDigestMatchesRecordedValue) {
  const workload::GeneratedWorkload g = Generate(GetParam());
  const workload::Workload& wl = *g.workload;
  Digest d;
  d.Add(wl.size());
  for (size_t i = 0; i < wl.size(); ++i) {
    auto stmt = ParseSelect(wl.query(i).sql);
    ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
    AddStatement(*stmt, &d);
    AddBoundQuery(wl.query(i).bound, &d);
    d.AddDouble(wl.query(i).base_cost);
    d.Add(wl.query(i).template_hash);
  }
  EXPECT_EQ(d.value(), GetParam().golden_digest)
      << GetParam().name << " digest 0x" << std::hex << d.value();
}

INSTANTIATE_TEST_SUITE_P(
    Generators, IngestOracle,
    ::testing::Values(GeneratorCase{"tpch", 10, 0x7f03d50945289fc5ull},
                      GeneratorCase{"tpcds", 10, 0x6595ac4cd73d3526ull},
                      GeneratorCase{"dsb", 0, 0x1cf851e028ce3843ull},
                      GeneratorCase{"realm", 0, 0xa3b5242e461a993cull}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace isum::sql
