#ifndef ISUM_SQL_PRINTER_H_
#define ISUM_SQL_PRINTER_H_

#include <cstdint>
#include <string>

#include "sql/ast.h"

namespace isum::sql {

/// How the printer renders literal values.
enum class LiteralMode {
  kValue,   ///< literals as written (numbers in shortest round-trip form)
  kMasked,  ///< every literal and LIKE pattern as '?', LIMIT as 0
};

/// Renders an expression back to SQL text.
std::string ExpressionToSql(const Expression& expr);

/// Renders a statement back to SQL text. Round-trips through ParseSelect up
/// to whitespace and parenthesization (verified by tests).
std::string StatementToSql(const SelectStatement& stmt);

/// Appends `stmt`'s SQL text to `*out`. kMasked yields the template text:
/// two instances of one template differ only in their literals, so they
/// print identically.
void AppendStatementSql(const SelectStatement& stmt, LiteralMode mode,
                        std::string* out);

/// HashBytes (FNV-1a) of the text AppendStatementSql would append, computed
/// without building the text.
uint64_t HashStatementSql(const SelectStatement& stmt, LiteralMode mode);

}  // namespace isum::sql

#endif  // ISUM_SQL_PRINTER_H_
