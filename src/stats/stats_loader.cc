#include "stats/stats_loader.h"

#include "common/json.h"
#include "common/math_util.h"
#include "common/string_util.h"

namespace isum::stats {

StatusOr<int> LoadColumnStats(const std::string& jsonl,
                              const catalog::Catalog& catalog,
                              StatsManager* stats, uint64_t seed) {
  DataGenerator generator;
  Rng rng(seed);
  int loaded = 0;
  for (const std::string& line : Split(jsonl, '\n')) {
    if (Trim(line).empty()) continue;
    ISUM_ASSIGN_OR_RETURN(const JsonValue row, ParseJson(line));
    ISUM_ASSIGN_OR_RETURN(std::string table, row.String("table"));
    ISUM_ASSIGN_OR_RETURN(std::string column, row.String("column"));
    const catalog::ColumnId id = catalog.ResolveColumn(table, column);
    if (!id.valid()) {
      return Status::NotFound("unknown column '" + table + "." + column + "'");
    }

    ColumnDataSpec spec;
    ISUM_ASSIGN_OR_RETURN(double distinct, row.Number("distinct"));
    spec.distinct = SaturatingCast<uint64_t>(std::max(1.0, distinct));
    ISUM_ASSIGN_OR_RETURN(spec.domain_min, row.Number("min"));
    ISUM_ASSIGN_OR_RETURN(spec.domain_max, row.Number("max"));
    if (spec.domain_max < spec.domain_min) {
      return Status::InvalidArgument("min > max for '" + table + "." + column +
                                     "'");
    }
    if (row.Find("distribution") != nullptr) {
      ISUM_ASSIGN_OR_RETURN(std::string dist, row.String("distribution"));
      const std::string lower = ToLower(dist);
      if (lower == "uniform") {
        spec.distribution = Distribution::kUniform;
      } else if (lower == "zipf") {
        spec.distribution = Distribution::kZipf;
      } else if (lower == "gaussian" || lower == "normal") {
        spec.distribution = Distribution::kGaussian;
      } else {
        return Status::InvalidArgument("unknown distribution '" + dist + "'");
      }
    }
    if (row.Find("skew") != nullptr) {
      ISUM_ASSIGN_OR_RETURN(spec.zipf_skew, row.Number("skew"));
    }
    if (row.Find("nulls") != nullptr) {
      ISUM_ASSIGN_OR_RETURN(spec.null_fraction, row.Number("nulls"));
    }

    Rng column_rng = rng.Fork(static_cast<uint64_t>(loaded) + 1);
    stats->SetStats(id, generator.Generate(
                            spec, catalog.table(id.table).row_count(),
                            column_rng));
    ++loaded;
  }
  return loaded;
}

}  // namespace isum::stats
