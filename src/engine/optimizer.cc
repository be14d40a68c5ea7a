#include "engine/optimizer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "common/string_util.h"

namespace isum::engine {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Per-table slice of the query used while planning.
struct TableContext {
  catalog::TableId table = catalog::kInvalidTableId;
  sql::JoinSemantics semantics = sql::JoinSemantics::kInner;
  std::vector<sql::FilterPredicate> filters;
  std::vector<catalog::ColumnId> required_columns;
  AccessPath access;
};

/// Default match probability for anti joins (no-match fraction).
constexpr double kAntiJoinSelectivity = 0.33;

double EstimateGroups(const stats::StatsManager& stats,
                      const std::vector<catalog::ColumnId>& group_columns,
                      double input_rows) {
  if (group_columns.empty()) return 1.0;
  double groups = 1.0;
  for (catalog::ColumnId c : group_columns) {
    groups *= std::max(1.0, stats.DistinctCount(c));
    if (groups > input_rows) break;
  }
  return std::clamp(groups, 1.0, std::max(1.0, input_rows));
}

}  // namespace

const char* JoinMethodToString(JoinMethod method) {
  switch (method) {
    case JoinMethod::kNone:
      return "driver";
    case JoinMethod::kHashJoin:
      return "hash join";
    case JoinMethod::kIndexNestedLoop:
      return "index nested loop";
    case JoinMethod::kCrossJoin:
      return "cross join";
  }
  return "?";
}

PlanSummary Optimizer::Optimize(const sql::BoundQuery& query,
                                const Configuration& config) const {
  const CostModel& cm = *cost_model_;
  const catalog::Catalog& cat = cm.catalog();
  const stats::StatsManager& stats = cm.stats();

  PlanSummary plan;
  if (query.tables.empty()) return plan;

  // --- Partition query state by table. ---
  std::vector<TableContext> ctx;
  std::unordered_map<catalog::TableId, size_t> ctx_index;
  for (const auto& ref : query.tables) {
    if (ctx_index.contains(ref.table)) continue;  // self-join: fold
    ctx_index[ref.table] = ctx.size();
    TableContext tc;
    tc.table = ref.table;
    tc.semantics = ref.semantics;
    ctx.push_back(std::move(tc));
  }
  for (const auto& f : query.filters) {
    auto it = ctx_index.find(f.column.table);
    if (it != ctx_index.end()) ctx[it->second].filters.push_back(f);
  }
  for (catalog::ColumnId c : query.ReferencedColumns()) {
    auto it = ctx_index.find(c.table);
    if (it != ctx_index.end()) ctx[it->second].required_columns.push_back(c);
  }

  const bool single_table = ctx.size() == 1;

  // Desired physical order (sort avoidance), single-table only.
  const std::vector<catalog::ColumnId> desired_order =
      CostModel::DesiredOrder(query);

  // --- Access path per table. ---
  for (TableContext& tc : ctx) {
    tc.access = cm.BestAccessPath(tc.table, tc.filters, tc.required_columns,
                                  desired_order, config);
  }

  // --- Join order (greedy left-deep). ---
  std::vector<bool> placed(ctx.size(), false);
  double cur_rows = 0.0;

  // Driver: cheapest access per produced row. Semi/anti tables cannot
  // drive (their semantics restrict the *other* side), so prefer inner
  // tables; a query whose tables are all semi/anti is degenerate but legal.
  size_t driver = 0;
  double best_score = kInf;
  bool driver_inner = false;
  for (size_t i = 0; i < ctx.size(); ++i) {
    const bool inner = ctx[i].semantics == sql::JoinSemantics::kInner;
    if (driver_inner && !inner) continue;
    const double score = ctx[i].access.cost + ctx[i].access.out_rows * 0.01;
    if ((inner && !driver_inner) || score < best_score) {
      best_score = score;
      driver = i;
      driver_inner = inner;
    }
  }
  {
    PlannedTable pt;
    pt.table = ctx[driver].table;
    pt.access = ctx[driver].access;
    pt.join_method = JoinMethod::kNone;
    pt.step_cost = ctx[driver].access.cost;
    cur_rows = ctx[driver].access.out_rows;
    pt.cumulative_rows = cur_rows;
    plan.total_cost += pt.step_cost;
    plan.tables.push_back(pt);
    placed[driver] = true;
  }

  for (size_t step = 1; step < ctx.size(); ++step) {
    // Candidate tables joinable with the placed set. Connected candidates
    // always beat cross joins; cross joins only happen when the join graph
    // is disconnected.
    size_t best_i = ctx.size();
    JoinMethod best_method = JoinMethod::kCrossJoin;
    const Index* best_inl = nullptr;
    double best_cost = kInf;
    double best_rows = 0.0;
    bool best_connected = false;

    for (size_t i = 0; i < ctx.size(); ++i) {
      if (placed[i]) continue;
      // Combined selectivity of join predicates linking i to the placed set,
      // and the i-side join columns (for INL).
      double join_sel = 1.0;
      bool connected = false;
      std::vector<catalog::ColumnId> inner_join_cols;
      for (const auto& jp : query.joins) {
        const bool left_in_i = jp.left.table == ctx[i].table;
        const bool right_in_i = jp.right.table == ctx[i].table;
        if (!left_in_i && !right_in_i) continue;
        const catalog::ColumnId other = left_in_i ? jp.right : jp.left;
        auto oit = ctx_index.find(other.table);
        if (oit == ctx_index.end() || !placed[oit->second]) continue;
        connected = true;
        join_sel *= jp.selectivity;
        inner_join_cols.push_back(left_in_i ? jp.left : jp.right);
      }
      if (best_connected && !connected) continue;

      const TableContext& tc = ctx[i];
      double result_rows =
          std::max(1.0, connected ? cur_rows * tc.access.out_rows * join_sel
                                  : cur_rows * tc.access.out_rows);
      // Semi/anti joins (flattened subqueries) cap instead of multiply.
      if (tc.semantics == sql::JoinSemantics::kSemi) {
        result_rows = std::min(result_rows, cur_rows);
      } else if (tc.semantics == sql::JoinSemantics::kAnti) {
        result_rows = std::max(1.0, cur_rows * kAntiJoinSelectivity);
      }
      // Producing join output rows costs CPU; charging it here both prices
      // huge intermediates and steers the greedy away from shortcut joins
      // that explode cardinality (e.g. joining two entities on a shared
      // low-cardinality dimension key).
      const double output_cpu = result_rows * cm.params().cpu_operator_cost;
      // A connected candidate displaces any cross-join best so far.
      const bool displaces = connected && !best_connected;

      if (connected) {
        // Hash join.
        const double hash_cost =
            output_cpu + tc.access.cost +
            cm.HashJoinCost(std::min(cur_rows, tc.access.out_rows),
                            std::max(cur_rows, tc.access.out_rows));
        if (displaces || hash_cost < best_cost) {
          best_cost = hash_cost;
          best_i = i;
          best_method = JoinMethod::kHashJoin;
          best_inl = nullptr;
          best_rows = result_rows;
          best_connected = true;
        }
        // Index nested loop: leading index key must be an inner join column.
        for (const Index* index : config.IndexesOnTable(tc.table)) {
          if (!CostModel::LeadsWithAnyOf(*index, inner_join_cols)) continue;
          const catalog::ColumnId lead = index->key_columns()[0];
          const double inner_rows =
              static_cast<double>(cat.table(tc.table).row_count());
          const double per_probe =
              std::max(1e-3, inner_rows / std::max(1.0, stats.DistinctCount(lead)));
          const bool covering =
              CostModel::Covers(*index, tc.table, tc.required_columns);
          const double inl_cost =
              output_cpu +
              cm.IndexNestedLoopCost(*index, cur_rows, per_probe, covering);
          if (inl_cost < best_cost) {
            best_cost = inl_cost;
            best_i = i;
            best_method = JoinMethod::kIndexNestedLoop;
            best_inl = index;
            best_rows = result_rows;
            best_connected = true;
          }
        }
      } else {
        const double cross_cost = output_cpu + tc.access.cost;
        if (cross_cost < best_cost) {
          best_cost = cross_cost;
          best_i = i;
          best_method = JoinMethod::kCrossJoin;
          best_inl = nullptr;
          best_rows = result_rows;
        }
      }
    }

    PlannedTable pt;
    pt.table = ctx[best_i].table;
    pt.access = ctx[best_i].access;
    pt.join_method = best_method;
    pt.inl_index = best_inl;
    pt.step_cost = best_cost;
    cur_rows = best_rows;
    pt.cumulative_rows = cur_rows;
    plan.total_cost += best_cost;
    plan.tables.push_back(pt);
    placed[best_i] = true;
  }

  // --- Residual multi-table predicates. ---
  for (const auto& cp : query.complex_predicates) {
    plan.total_cost += cur_rows * cm.params().cpu_operator_cost;
    cur_rows = std::max(1.0, cur_rows * cp.selectivity);
  }

  // --- Aggregation / DISTINCT. ---
  const bool has_agg = !query.aggregates.empty() || !query.group_by_columns.empty();
  if (has_agg) {
    const double groups =
        EstimateGroups(stats, query.group_by_columns, cur_rows);
    const bool can_stream = single_table && query.order_by_columns.empty() &&
                            !query.group_by_columns.empty() &&
                            plan.tables.front().access.provides_order;
    if (can_stream) {
      plan.stream_aggregate = true;
      plan.aggregate_cost = cm.StreamAggCost(cur_rows);
    } else {
      plan.aggregate_cost = cm.HashAggCost(cur_rows, groups);
    }
    plan.total_cost += plan.aggregate_cost;
    cur_rows = groups;
  } else if (query.distinct) {
    const double groups = EstimateGroups(stats, query.output_columns, cur_rows);
    plan.aggregate_cost = cm.HashAggCost(cur_rows, groups);
    plan.total_cost += plan.aggregate_cost;
    cur_rows = groups;
  }
  if (has_agg && query.having_selectivity < 1.0) {
    plan.total_cost += cur_rows * cm.params().cpu_operator_cost;
    cur_rows = std::max(1.0, cur_rows * query.having_selectivity);
  }

  // --- Sort. ---
  if (!query.order_by_columns.empty()) {
    const bool avoided = single_table && !has_agg &&
                         plan.tables.front().access.provides_order;
    if (avoided) {
      plan.sort_avoided_by_index = true;
    } else {
      plan.sort_needed = true;
      plan.sort_cost = cm.SortCost(cur_rows, query.limit);
      plan.total_cost += plan.sort_cost;
    }
  }

  if (query.limit.has_value()) {
    cur_rows = std::min(cur_rows, static_cast<double>(
                                      std::max<int64_t>(1, *query.limit)));
  }
  plan.output_rows = cur_rows;
  return plan;
}

std::string PlanSummary::Explain(const catalog::Catalog& catalog) const {
  std::string out;
  out += StrFormat("Plan cost=%.1f rows=%.0f\n", total_cost, output_rows);
  for (size_t i = 0; i < tables.size(); ++i) {
    const PlannedTable& pt = tables[i];
    out += StrFormat("  [%zu] %s", i, catalog.table(pt.table).name().c_str());
    if (pt.join_method != JoinMethod::kNone) {
      out += StrFormat(" via %s", JoinMethodToString(pt.join_method));
    }
    if (pt.join_method == JoinMethod::kIndexNestedLoop && pt.inl_index != nullptr) {
      out += " using " + pt.inl_index->DebugName(catalog);
    } else if (pt.access.index != nullptr) {
      out += " seek " + pt.access.index->DebugName(catalog);
      if (pt.access.covering) out += " (covering)";
    } else {
      out += " scan";
    }
    out += StrFormat("  cost=%.1f rows=%.0f\n", pt.step_cost, pt.cumulative_rows);
  }
  if (aggregate_cost > 0.0) {
    out += StrFormat("  %s aggregate cost=%.1f\n",
                     stream_aggregate ? "stream" : "hash", aggregate_cost);
  }
  if (sort_needed) out += StrFormat("  sort cost=%.1f\n", sort_cost);
  if (sort_avoided_by_index) out += "  sort avoided by index order\n";
  return out;
}

}  // namespace isum::engine
