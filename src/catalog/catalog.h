#ifndef ISUM_CATALOG_CATALOG_H_
#define ISUM_CATALOG_CATALOG_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "common/string_util.h"

namespace isum::catalog {

/// Logical column types supported by the SQL subset and the cost model.
enum class ColumnType {
  kInt,
  kBigInt,
  kDouble,
  kDecimal,
  kVarchar,
  kChar,
  kDate,
  kBool,
};

/// Returns the SQL-ish spelling of a type ("INT", "VARCHAR", ...).
const char* ColumnTypeToString(ColumnType type);

/// Average stored width in bytes for a column of `type` with the given
/// declared length (used for VARCHAR/CHAR; ignored otherwise).
int32_t DefaultWidthBytes(ColumnType type, int32_t declared_length);

/// Identifies a table within a Catalog.
using TableId = int32_t;
inline constexpr TableId kInvalidTableId = -1;

/// Identifies a column as (table, ordinal) within a Catalog.
struct ColumnId {
  TableId table = kInvalidTableId;
  int32_t column = -1;

  bool valid() const { return table >= 0 && column >= 0; }
  friend bool operator==(const ColumnId&, const ColumnId&) = default;
  friend auto operator<=>(const ColumnId&, const ColumnId&) = default;
};

/// Schema metadata for one column.
struct Column {
  std::string name;
  ColumnType type = ColumnType::kInt;
  int32_t ordinal = -1;
  /// Average width in bytes; drives row-size and index-size estimation.
  int32_t width_bytes = 4;
  /// True for primary-key-like columns (unique, used as join targets).
  bool is_key = false;
};

/// Schema metadata for one table, including its cardinality. The catalog is
/// statistics-only: the engine costs plans from metadata, never from rows
/// (see DESIGN.md §1 — the paper's metrics are optimizer-estimated too).
class Table {
 public:
  Table(TableId id, std::string name, uint64_t row_count)
      : id_(id), name_(std::move(name)), row_count_(row_count) {}

  TableId id() const { return id_; }
  const std::string& name() const { return name_; }
  uint64_t row_count() const { return row_count_; }
  void set_row_count(uint64_t n) { row_count_ = n; }

  const std::vector<Column>& columns() const { return columns_; }
  const Column& column(int32_t ordinal) const { return columns_[ordinal]; }

  /// Adds a column; returns its ordinal. Fails on duplicate names.
  StatusOr<int32_t> AddColumn(Column column);

  /// Finds a column ordinal by case-insensitive name; -1 if absent.
  int32_t FindColumn(std::string_view name) const;

  /// Sum of column widths plus per-row overhead, in bytes.
  int32_t row_width_bytes() const;

  /// Heap size in 8 KiB pages given the current row count.
  uint64_t data_pages() const;

 private:
  TableId id_;
  std::string name_;
  uint64_t row_count_;
  std::vector<Column> columns_;
  CaseInsensitiveMap<int32_t> by_name_;
};

/// A named collection of tables. Owns Table objects; TableIds are dense
/// indices assigned in creation order.
class Catalog {
 public:
  Catalog() = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;
  Catalog(Catalog&&) = default;
  Catalog& operator=(Catalog&&) = default;

  /// Creates a table; fails on duplicate (case-insensitive) names.
  StatusOr<Table*> CreateTable(const std::string& name, uint64_t row_count);

  /// Lookup by id; ISUM_DCHECKs validity (ids come from this catalog, so an
  /// out-of-range id is a caller bug, not an input error).
  const Table& table(TableId id) const {
    ISUM_DCHECK(id >= 0 && static_cast<size_t>(id) < tables_.size());
    return *tables_[id];
  }
  Table& mutable_table(TableId id) {
    ISUM_DCHECK(id >= 0 && static_cast<size_t>(id) < tables_.size());
    return *tables_[id];
  }

  /// Lookup by case-insensitive name; nullptr if absent.
  const Table* FindTable(std::string_view name) const;
  Table* FindMutableTable(std::string_view name);

  /// Resolves "table.column" or bare column name (if unambiguous across
  /// `candidate_tables`); returns an invalid id if not resolvable.
  ColumnId ResolveColumn(const std::string& table_name,
                         const std::string& column_name) const;

  size_t num_tables() const { return tables_.size(); }
  /// Total data size of all tables in bytes (used for storage budgets).
  uint64_t total_data_bytes() const;

  /// Stable string identity "table.column" for a ColumnId.
  std::string ColumnDebugName(ColumnId id) const;

  const Column& column(ColumnId id) const {
    return tables_[id.table]->column(id.column);
  }

 private:
  std::vector<std::unique_ptr<Table>> tables_;
  CaseInsensitiveMap<TableId> by_name_;
};

}  // namespace isum::catalog

namespace std {
template <>
struct hash<isum::catalog::ColumnId> {
  size_t operator()(const isum::catalog::ColumnId& id) const noexcept {
    return (static_cast<size_t>(id.table) << 20) ^
           static_cast<size_t>(id.column);
  }
};
}  // namespace std

#endif  // ISUM_CATALOG_CATALOG_H_
