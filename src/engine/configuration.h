#ifndef ISUM_ENGINE_CONFIGURATION_H_
#define ISUM_ENGINE_CONFIGURATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/index.h"

namespace isum::engine {

/// An index configuration: a set of hypothetical indexes the optimizer costs
/// against. Deduplicates on insert and keeps a stable hash for what-if
/// result caching.
class Configuration {
 public:
  Configuration() = default;
  explicit Configuration(std::vector<Index> indexes);

  /// Adds `index` if not already present; returns true if added.
  bool Add(Index index);

  /// Removes an equal index if present; returns true if removed.
  bool Remove(const Index& index);

  bool Contains(const Index& index) const;

  const std::vector<Index>& indexes() const { return indexes_; }
  size_t size() const { return indexes_.size(); }
  bool empty() const { return indexes_.empty(); }

  /// Indexes defined on `table` (in insertion order).
  std::vector<const Index*> IndexesOnTable(catalog::TableId table) const;

  /// Total estimated storage of all indexes.
  uint64_t TotalSizeBytes(const catalog::Catalog& catalog) const;

  /// Order-independent stable hash of the index set.
  uint64_t StableHash() const;

  /// StableHash() of the sub-configuration of indexes whose table satisfies
  /// `on_table(catalog::TableId)`. Projecting onto every table gives exactly
  /// StableHash(). Allocates nothing. The what-if memo keys on the
  /// projection onto a query's own tables, the only indexes the optimizer
  /// reads when costing that query.
  template <typename TablePredicate>
  uint64_t StableHashOn(TablePredicate on_table) const {
    // XOR of per-index mixes: order independent.
    uint64_t h = kHashSeed;
    for (const Index& index : indexes_) {
      if (on_table(index.table())) h ^= MixIndex(index);
    }
    return h;
  }

  /// Multi-line listing for reports.
  std::string DebugString(const catalog::Catalog& catalog) const;

 private:
  static constexpr uint64_t kHashSeed = 0x15B3C0FFEEull;
  static uint64_t MixIndex(const Index& index);

  std::vector<Index> indexes_;
};

}  // namespace isum::engine

#endif  // ISUM_ENGINE_CONFIGURATION_H_
