#include "sql/templatizer.h"

#include "sql/printer.h"

namespace isum::sql {

std::string TemplateText(const SelectStatement& stmt) {
  std::string text;
  AppendStatementSql(stmt, LiteralMode::kMasked, &text);
  return text;
}

uint64_t TemplateHash(const SelectStatement& stmt) {
  return HashStatementSql(stmt, LiteralMode::kMasked);
}

}  // namespace isum::sql
