#include "sql/ddl_parser.h"

#include <vector>

#include "common/string_util.h"
#include "sql/lexer.h"

namespace isum::sql {

namespace {

class DdlParser {
 public:
  DdlParser(std::vector<Token> tokens, catalog::Catalog* catalog)
      : tokens_(std::move(tokens)), catalog_(catalog) {}

  StatusOr<int> Run() {
    int created = 0;
    while (!Peek().Is(TokenType::kEnd)) {
      ISUM_RETURN_IF_ERROR(ParseCreateTable());
      ++created;
      while (Match(";")) {
      }
    }
    return created;
  }

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
  Status Expect(std::string_view spelling) {
    if (Match(spelling)) return Status::OK();
    return Status::ParseError(StrFormat(
        "expected '%.*s' at offset %zu, got '%.*s'",
        static_cast<int>(spelling.size()), spelling.data(), Peek().offset,
        static_cast<int>(Peek().text.size()), Peek().text.data()));
  }
  StatusOr<std::string> ExpectIdentifier(const char* what) {
    if (!Peek().Is(TokenType::kIdentifier)) {
      return Status::ParseError(
          StrFormat("expected %s at offset %zu", what, Peek().offset));
    }
    return std::string(Advance().text);
  }

  /// Parses "(number [, number])" and returns the first value; 0 if absent.
  StatusOr<int32_t> ParseOptionalLength() {
    if (!Match("(")) return 0;
    if (!Peek().Is(TokenType::kNumber)) {
      return Status::ParseError(
          StrFormat("expected length at offset %zu", Peek().offset));
    }
    const int32_t length = static_cast<int32_t>(Advance().number);
    if (Match(",")) {
      if (!Peek().Is(TokenType::kNumber)) {
        return Status::ParseError(
            StrFormat("expected scale at offset %zu", Peek().offset));
      }
      Advance();
    }
    ISUM_RETURN_IF_ERROR(Expect(")"));
    return length;
  }

  StatusOr<catalog::ColumnType> ParseType(int32_t* declared_length) {
    ISUM_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier("column type"));
    const std::string lower = ToLower(name);
    *declared_length = 0;
    if (lower == "int" || lower == "integer" || lower == "smallint") {
      return catalog::ColumnType::kInt;
    }
    if (lower == "bigint") return catalog::ColumnType::kBigInt;
    if (lower == "double" || lower == "float" || lower == "real") {
      return catalog::ColumnType::kDouble;
    }
    if (lower == "decimal" || lower == "numeric") {
      ISUM_ASSIGN_OR_RETURN(*declared_length, ParseOptionalLength());
      return catalog::ColumnType::kDecimal;
    }
    if (lower == "varchar") {
      ISUM_ASSIGN_OR_RETURN(*declared_length, ParseOptionalLength());
      return catalog::ColumnType::kVarchar;
    }
    if (lower == "char") {
      ISUM_ASSIGN_OR_RETURN(*declared_length, ParseOptionalLength());
      return catalog::ColumnType::kChar;
    }
    if (lower == "text") {
      *declared_length = 64;
      return catalog::ColumnType::kVarchar;
    }
    if (lower == "date" || lower == "timestamp" || lower == "datetime") {
      return catalog::ColumnType::kDate;
    }
    if (lower == "bool" || lower == "boolean") return catalog::ColumnType::kBool;
    return Status::ParseError("unknown column type '" + name + "'");
  }

  Status ParseCreateTable() {
    ISUM_RETURN_IF_ERROR(Expect("create"));
    ISUM_RETURN_IF_ERROR(Expect("table"));
    ISUM_ASSIGN_OR_RETURN(std::string table_name,
                          ExpectIdentifier("table name"));
    ISUM_RETURN_IF_ERROR(Expect("("));

    struct PendingColumn {
      catalog::Column column;
    };
    std::vector<PendingColumn> columns;
    for (;;) {
      ISUM_ASSIGN_OR_RETURN(std::string col_name,
                            ExpectIdentifier("column name"));
      int32_t declared_length = 0;
      ISUM_ASSIGN_OR_RETURN(catalog::ColumnType type,
                            ParseType(&declared_length));
      PendingColumn pc;
      pc.column.name = std::move(col_name);
      pc.column.type = type;
      pc.column.width_bytes = catalog::DefaultWidthBytes(type, declared_length);
      // Column constraints we understand; others are rejected loudly rather
      // than silently skipped.
      for (;;) {
        if (Match("primary")) {
          ISUM_RETURN_IF_ERROR(Expect("key"));
          pc.column.is_key = true;
        } else if (Match("not")) {
          ISUM_RETURN_IF_ERROR(Expect("null"));
        } else if (Match("unique")) {
          pc.column.is_key = true;
        } else {
          break;
        }
      }
      columns.push_back(std::move(pc));
      if (Match(",")) continue;
      ISUM_RETURN_IF_ERROR(Expect(")"));
      break;
    }

    uint64_t rows = 1000;
    if (Match("with")) {
      ISUM_RETURN_IF_ERROR(Expect("("));
      ISUM_RETURN_IF_ERROR(Expect("rows"));
      ISUM_RETURN_IF_ERROR(Expect("="));
      if (!Peek().Is(TokenType::kNumber)) {
        return Status::ParseError(
            StrFormat("expected row count at offset %zu", Peek().offset));
      }
      rows = static_cast<uint64_t>(Advance().number);
      ISUM_RETURN_IF_ERROR(Expect(")"));
    }

    ISUM_ASSIGN_OR_RETURN(catalog::Table * table,
                          catalog_->CreateTable(table_name, rows));
    for (PendingColumn& pc : columns) {
      auto added = table->AddColumn(std::move(pc.column));
      if (!added.ok()) return added.status();
    }
    return Status::OK();
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  catalog::Catalog* catalog_;
};

}  // namespace

StatusOr<int> ParseSchema(std::string_view ddl, catalog::Catalog* catalog) {
  ISUM_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(ddl));
  DdlParser parser(std::move(tokens), catalog);
  return parser.Run();
}

}  // namespace isum::sql
