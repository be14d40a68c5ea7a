// Robustness of SQL ingest against damaged input. Every truncation of one
// generated query per template, and the same query with one fixed bit
// flipped at each offset, goes through ParseSelect and Binder::Bind. Each
// call must return a Status (a parse, bind or unsupported-construct error
// when it rejects) rather than crash. Under ASan the input sits in an
// exact-size buffer that is freed before binding and printing, so a token or
// AST node that still views the input is reported. Every statement the
// parser accepts must print to SQL that parses back and prints identically.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "sql/binder.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "workload/workload_factory.h"

namespace isum::sql {
namespace {

struct RobustnessCase {
  const char* name;
  int max_templates;  ///< 0 = every template
};

void PrintTo(const RobustnessCase& c, std::ostream* os) { *os << c.name; }

/// Parses `sql` from a heap copy of exactly its size, frees the copy, then
/// binds and round-trips whatever the parser accepted.
void ExpectSurvives(std::string_view sql, const Binder& binder) {
  auto buffer = std::make_unique<char[]>(sql.size());
  std::memcpy(buffer.get(), sql.data(), sql.size());
  StatusOr<SelectStatement> stmt =
      ParseSelect(std::string_view(buffer.get(), sql.size()));
  buffer.reset();
  if (!stmt.ok()) {
    ASSERT_EQ(stmt.status().code(), StatusCode::kParseError) << sql;
    return;
  }
  const StatusOr<BoundQuery> bound = binder.Bind(*stmt);
  if (!bound.ok()) {
    const StatusCode code = bound.status().code();
    ASSERT_TRUE(code == StatusCode::kBindError ||
                code == StatusCode::kUnimplemented)
        << bound.status().ToString() << "\ninput: " << sql;
  }
  const std::string printed = StatementToSql(*stmt);
  StatusOr<SelectStatement> again = ParseSelect(printed);
  ASSERT_TRUE(again.ok()) << again.status().ToString() << "\ninput: " << sql
                          << "\nprinted: " << printed;
  ASSERT_EQ(StatementToSql(*again), printed) << "input: " << sql;
}

class SqlRobustness : public ::testing::TestWithParam<RobustnessCase> {};

TEST_P(SqlRobustness, TruncationsAndBitFlipsReturnStatus) {
  workload::GeneratorOptions options;
  options.instances_per_template = 1;
  options.max_templates = GetParam().max_templates;
  const workload::GeneratedWorkload g =
      workload::MakeWorkloadByName(GetParam().name, options);
  const Binder binder(g.catalog.get(), g.stats.get());
  std::unordered_set<uint64_t> seen;
  size_t inputs = 0;
  for (size_t q = 0; q < g.workload->size(); ++q) {
    const workload::QueryInfo& info = g.workload->query(q);
    if (!seen.insert(info.template_hash).second) continue;
    const std::string& sql = info.sql;
    for (size_t len = 0; len < sql.size(); ++len) {
      ExpectSurvives(std::string_view(sql).substr(0, len), binder);
      if (HasFatalFailure()) return;
    }
    for (size_t i = 0; i < sql.size(); ++i) {
      std::string flipped = sql;
      flipped[i] = static_cast<char>(flipped[i] ^ 0x01);
      ExpectSurvives(flipped, binder);
      if (HasFatalFailure()) return;
    }
    inputs += 2 * sql.size();
  }
  EXPECT_GT(inputs, 0u);
}

INSTANTIATE_TEST_SUITE_P(Generators, SqlRobustness,
                         ::testing::Values(RobustnessCase{"tpch", 0},
                                           RobustnessCase{"tpcds", 0},
                                           RobustnessCase{"dsb", 0},
                                           RobustnessCase{"realm", 50}),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace isum::sql
