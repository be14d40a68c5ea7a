#include "catalog/catalog.h"

namespace isum::catalog {

namespace {
// Fixed page size used throughout the engine's cost model.
constexpr uint64_t kPageBytes = 8192;
// Per-row storage overhead (header, null bitmap, slot entry).
constexpr int32_t kRowOverheadBytes = 16;
}  // namespace

const char* ColumnTypeToString(ColumnType type) {
  switch (type) {
    case ColumnType::kInt:
      return "INT";
    case ColumnType::kBigInt:
      return "BIGINT";
    case ColumnType::kDouble:
      return "DOUBLE";
    case ColumnType::kDecimal:
      return "DECIMAL";
    case ColumnType::kVarchar:
      return "VARCHAR";
    case ColumnType::kChar:
      return "CHAR";
    case ColumnType::kDate:
      return "DATE";
    case ColumnType::kBool:
      return "BOOL";
  }
  return "UNKNOWN";
}

int32_t DefaultWidthBytes(ColumnType type, int32_t declared_length) {
  switch (type) {
    case ColumnType::kInt:
      return 4;
    case ColumnType::kBigInt:
      return 8;
    case ColumnType::kDouble:
      return 8;
    case ColumnType::kDecimal:
      return 9;
    case ColumnType::kVarchar:
      // Assume half-full variable-length strings.
      return declared_length > 0 ? (declared_length + 1) / 2 + 2 : 16;
    case ColumnType::kChar:
      return declared_length > 0 ? declared_length : 1;
    case ColumnType::kDate:
      return 4;
    case ColumnType::kBool:
      return 1;
  }
  return 8;
}

StatusOr<int32_t> Table::AddColumn(Column column) {
  if (by_name_.contains(std::string_view(column.name))) {
    return Status::AlreadyExists("column '" + column.name + "' already in table '" +
                                 name_ + "'");
  }
  column.ordinal = static_cast<int32_t>(columns_.size());
  by_name_.emplace(column.name, column.ordinal);
  columns_.push_back(std::move(column));
  return columns_.back().ordinal;
}

int32_t Table::FindColumn(std::string_view name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? -1 : it->second;
}

int32_t Table::row_width_bytes() const {
  int32_t w = kRowOverheadBytes;
  for (const Column& c : columns_) w += c.width_bytes;
  return w;
}

uint64_t Table::data_pages() const {
  const uint64_t bytes = row_count_ * static_cast<uint64_t>(row_width_bytes());
  return bytes / kPageBytes + 1;
}

StatusOr<Table*> Catalog::CreateTable(const std::string& name,
                                      uint64_t row_count) {
  if (by_name_.contains(std::string_view(name))) {
    return Status::AlreadyExists("table '" + name + "' already exists");
  }
  const TableId id = static_cast<TableId>(tables_.size());
  tables_.push_back(std::make_unique<Table>(id, name, row_count));
  by_name_.emplace(name, id);
  return tables_.back().get();
}

const Table* Catalog::FindTable(std::string_view name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : tables_[it->second].get();
}

Table* Catalog::FindMutableTable(std::string_view name) {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : tables_[it->second].get();
}

ColumnId Catalog::ResolveColumn(const std::string& table_name,
                                const std::string& column_name) const {
  if (!table_name.empty()) {
    const Table* t = FindTable(table_name);
    if (t == nullptr) return ColumnId{};
    const int32_t ord = t->FindColumn(column_name);
    if (ord < 0) return ColumnId{};
    return ColumnId{t->id(), ord};
  }
  // Unqualified: search all tables; must be unambiguous.
  ColumnId found{};
  for (const auto& t : tables_) {
    const int32_t ord = t->FindColumn(column_name);
    if (ord >= 0) {
      if (found.valid()) return ColumnId{};  // ambiguous
      found = ColumnId{t->id(), ord};
    }
  }
  return found;
}

uint64_t Catalog::total_data_bytes() const {
  uint64_t total = 0;
  for (const auto& t : tables_) {
    total += t->row_count() * static_cast<uint64_t>(t->row_width_bytes());
  }
  return total;
}

std::string Catalog::ColumnDebugName(ColumnId id) const {
  if (!id.valid() || static_cast<size_t>(id.table) >= tables_.size()) {
    return "<invalid>";
  }
  const Table& t = *tables_[id.table];
  if (id.column < 0 || static_cast<size_t>(id.column) >= t.columns().size()) {
    return t.name() + ".<invalid>";
  }
  return t.name() + "." + t.column(id.column).name;
}

}  // namespace isum::catalog
