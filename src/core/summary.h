#ifndef ISUM_CORE_SUMMARY_H_
#define ISUM_CORE_SUMMARY_H_

#include "core/allpairs.h"
#include "core/compression_state.h"

namespace isum::core {

/// Workload summary features (Definition 11): per-column utility-weighted
/// sums over the *unselected* queries, V_c = Σ_i q_ic × U(q_i).
SparseVector ComputeSummaryFeatures(const CompressionState& state);

/// Influence of a query on the workload estimated through summary features
/// (§6.1): F_{q_s}(V) = S(q_s, V). `exclude_utility` must be the query's own
/// utility so its contribution is removed and the remainder rescaled
/// (Algorithm 3, lines 9–11).
double SummaryInfluence(const SparseVector& query_features, double query_utility,
                        double total_utility, const SparseVector& summary);

/// Algorithm 3 + §6.2: the linear-time greedy. Each round recomputes the
/// summary features over the unselected queries, scores every eligible query
/// by utility + S(features, V'), selects the max, and applies `strategy`.
/// O(k·n·f) where f is the average feature count. `budget` is observed once
/// per round (see AllPairsGreedySelect).
SelectionResult SummaryGreedySelect(CompressionState& state, size_t k,
                                    UpdateStrategy strategy,
                                    const TimeBudget& budget = {});

}  // namespace isum::core

#endif  // ISUM_CORE_SUMMARY_H_
