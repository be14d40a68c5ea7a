#ifndef ISUM_ENGINE_COST_MODEL_H_
#define ISUM_ENGINE_COST_MODEL_H_

#include <optional>
#include <vector>

#include "catalog/catalog.h"
#include "engine/configuration.h"
#include "sql/bound_query.h"
#include "stats/stats_manager.h"

namespace isum::engine {

/// Tunable constants of the cost model. Units are abstract "optimizer cost";
/// defaults roughly follow the classic 1 seq-page = 1.0 convention.
struct CostParams {
  double seq_page_cost = 1.0;
  double random_page_cost = 4.0;
  double cpu_tuple_cost = 0.01;
  double cpu_operator_cost = 0.0025;
  double hash_build_per_row = 0.02;
  double hash_probe_per_row = 0.01;
  /// Sort cost = rows * log2(effective) * this.
  double sort_factor = 0.02;
  /// Stream aggregation per input row.
  double stream_agg_per_row = 0.005;
};

/// How a single table is accessed under a configuration.
struct AccessPath {
  /// Chosen index; nullptr means full table scan. Points into the
  /// Configuration passed to BestAccessPath; valid while it lives.
  const Index* index = nullptr;
  double cost = 0.0;
  /// Rows produced after applying all of the query's filters on this table.
  double out_rows = 0.0;
  /// Rows fetched by the seek before residual filtering.
  double fetched_rows = 0.0;
  /// True if the index contains every column the query needs from the table.
  bool covering = false;
  /// True if the access yields rows in the desired order (sort avoidable).
  bool provides_order = false;
  /// Product of selectivities of predicates the seek itself applied.
  double seek_selectivity = 1.0;
};

/// Operator-level cost formulas shared by the optimizer and the advisor.
/// Stateless apart from catalog/statistics references.
class CostModel {
 public:
  CostModel(const catalog::Catalog* catalog, const stats::StatsManager* stats,
            CostParams params = {})
      : catalog_(catalog), stats_(stats), params_(params) {}

  const CostParams& params() const { return params_; }
  const catalog::Catalog& catalog() const { return *catalog_; }
  const stats::StatsManager& stats() const { return *stats_; }

  /// True unless the optimizer provably ignores `index` when costing
  /// `query`, under any configuration. That holds when `query` does not
  /// reference the index's table, or when none of these holds:
  ///   - a sargable equality or range filter sits on the leading key
  ///     (a seek prefix exists);
  ///   - the index covers every column the query needs from its table;
  ///   - the query is single-table and the key order gives its ORDER BY
  ///     (else GROUP BY) order;
  ///   - the leading key is a join column of the index's table.
  /// The first three are BestAccessPath's test for considering an index;
  /// the last is a superset of the index-nested-loop test, which needs the
  /// join partner to be placed already. All of them go through the helpers
  /// below, which the optimizer itself calls. Dropping unusable indexes
  /// from a configuration leaves the query's cost bit-identical, so the
  /// enumerator never costs a (query, candidate) pair this rejects.
  static bool CanUseIndex(const sql::BoundQuery& query, const Index& index);

  /// A sargable equality or range filter in `filters` sits on `index`'s
  /// leading key, so a seek on it matches at least one key column.
  static bool HasSeekPrefix(const Index& index,
                            const std::vector<sql::FilterPredicate>& filters);
  /// `index` contains every column of `table` listed in `columns` (columns
  /// of other tables are ignored).
  static bool Covers(const Index& index, catalog::TableId table,
                     const std::vector<catalog::ColumnId>& columns);
  /// The key columns after the first `skip` start with `order` (false when
  /// `order` is empty).
  static bool ProvidesOrder(const Index& index, size_t skip,
                            const std::vector<catalog::ColumnId>& order);
  /// The leading key column is one of `columns`.
  static bool LeadsWithAnyOf(const Index& index,
                             const std::vector<catalog::ColumnId>& columns);
  /// The column sequence whose order lets `query` skip its sort or stream
  /// its aggregate: ORDER BY columns, else GROUP BY columns. Empty unless
  /// the query reads a single table.
  static std::vector<catalog::ColumnId> DesiredOrder(
      const sql::BoundQuery& query);

  /// Cost of a full heap scan of `table` (CPU for all rows included).
  double FullScanCost(catalog::TableId table) const;

  /// Best access path for `table` given the query's filters on it.
  ///
  /// `filters` must only contain predicates on `table`. `required_columns`
  /// are the table's columns the query needs (drives covering checks);
  /// `desired_order` is the column sequence whose order would let the caller
  /// skip a sort (empty if none). Considers: full scan, covering index-only
  /// scan, and an index seek per index in `config`.
  AccessPath BestAccessPath(
      catalog::TableId table, const std::vector<sql::FilterPredicate>& filters,
      const std::vector<catalog::ColumnId>& required_columns,
      const std::vector<catalog::ColumnId>& desired_order,
      const Configuration& config) const;

  /// Cost of sorting `rows` rows (top-N if `limit` set).
  double SortCost(double rows, std::optional<int64_t> limit) const;

  /// Hash join cost (build side chosen by caller).
  double HashJoinCost(double build_rows, double probe_rows) const;

  /// Hash aggregation of `rows` input rows into `groups` groups.
  double HashAggCost(double rows, double groups) const;

  /// Stream aggregation over pre-ordered input.
  double StreamAggCost(double rows) const;

  /// Cost of probing `index` once per outer row in an index nested-loop
  /// join: `outer_rows` probes, each fetching `rows_per_probe` inner rows.
  double IndexNestedLoopCost(const Index& index, double outer_rows,
                             double rows_per_probe, bool covering) const;

 private:
  /// Cost of an index seek matching `seek_selectivity` of the index entries,
  /// fetching `fetched_rows`, looking up base rows unless covering.
  double SeekCost(const Index& index, double seek_selectivity,
                  double fetched_rows, bool covering) const;

  const catalog::Catalog* catalog_;
  const stats::StatsManager* stats_;
  CostParams params_;
};

}  // namespace isum::engine

#endif  // ISUM_ENGINE_COST_MODEL_H_
