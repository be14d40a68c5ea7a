#ifndef ISUM_SQL_TEMPLATIZER_H_
#define ISUM_SQL_TEMPLATIZER_H_

#include <cstdint>
#include <string>

#include "sql/ast.h"

namespace isum::sql {

/// Canonical template text of a statement: the SQL rendering with every
/// literal and LIKE pattern printed as '?' and LIMIT as 0. Two query
/// instances of the same template (same skeleton, different parameter
/// bindings — the grouping used by [11] and by the paper's Stratified
/// baseline and template-based weighing, §7) map to identical template text.
std::string TemplateText(const SelectStatement& stmt);

/// Stable 64-bit hash of TemplateText: HashBytes (FNV-1a) of the text,
/// computed while printing it.
uint64_t TemplateHash(const SelectStatement& stmt);

}  // namespace isum::sql

#endif  // ISUM_SQL_TEMPLATIZER_H_
