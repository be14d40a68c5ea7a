#ifndef ISUM_ADVISOR_ENUMERATOR_H_
#define ISUM_ADVISOR_ENUMERATOR_H_

#include <vector>

#include "advisor/advisor.h"
#include "common/deadline.h"

namespace isum::advisor {

/// Result of greedy configuration enumeration.
struct EnumerationResult {
  engine::Configuration configuration;
  uint64_t configurations_explored = 0;
  double initial_cost = 0.0;
  double final_cost = 0.0;
  /// kComplete, or why enumeration stopped early. On early stop the
  /// configuration holds only fully-evaluated rounds — a partially costed
  /// round is never applied (docs/ROBUSTNESS.md).
  StopReason stop_reason = StopReason::kComplete;
};

/// Greedily grows a configuration from `pool`: each round adds the candidate
/// with the maximum weighted-workload cost improvement that still fits the
/// storage budget, stopping at `max_indexes` or when no candidate improves.
///
/// Enumeration is incremental and exact. Once per call, each candidate gets
/// the ascending list of queries that can use it
/// (engine::CostModel::CanUseIndex); no other query's cost can change when
/// it is added, so it is costed against that list only. Its per-query
/// costs are carried from round to round. In round 0, and in the first
/// round after a checkpoint restore, every candidate is costed against its
/// whole list; so is a candidate whose last costing failed or was cut.
/// After that a candidate re-costs only the queries that can also use the
/// last winner, and its improvement is re-summed over its list in query
/// order, giving the same bits as a sum over every query. The winner sets
/// the current cost of the queries on its own list.
///
/// `budget` makes enumeration anytime: it is observed at round boundaries
/// and inside every what-if call, and on expiry the configuration built so
/// far is returned with stop_reason set. Candidates whose costing fails
/// persistently under fault injection are treated as non-improving; a round
/// where *every* candidate fails stops enumeration with
/// StopReason::kFault. `num_threads` > 1 evaluates candidates concurrently
/// (same result for any thread count: the winner is reduced
/// deterministically; on cancellation the in-flight batch is drained before
/// returning).
///
/// The ambient checkpoint config (common/checkpoint.h, installed by
/// --checkpoint=) enables crash-safe checkpoint/resume
/// (docs/ROBUSTNESS.md): after initial costing, the newest valid epoch
/// under `<path>.enum` whose fingerprint (queries, weights, pool,
/// constraints) and bit-exact initial cost match is restored — the winner
/// sequence is replayed and the per-query current costs reinstated — and
/// enumeration continues from the checkpointed round through a cold what-if
/// memo, costing every candidate in full once. Epochs are written after
/// every completed round and at termination; the round that reaches
/// `max_indexes` is written once, by the termination write. A resumed run
/// adds the same indexes at the same costs as an uninterrupted one.
EnumerationResult GreedyEnumerate(
    engine::WhatIfOptimizer& what_if,
    const std::vector<WeightedQuery>& queries,
    const std::vector<engine::Index>& pool, int max_indexes,
    uint64_t storage_budget_bytes, const catalog::Catalog& catalog,
    const TimeBudget& budget = {}, int num_threads = 1);

}  // namespace isum::advisor

#endif  // ISUM_ADVISOR_ENUMERATOR_H_
