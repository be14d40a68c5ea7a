#ifndef ISUM_CORE_ALLPAIRS_H_
#define ISUM_CORE_ALLPAIRS_H_

#include <vector>

#include "common/deadline.h"
#include "common/thread_pool.h"
#include "core/compression_state.h"

namespace isum::core {

/// Result of a greedy selection run: chosen query indices in selection order
/// and the conditional benefit each had at selection time.
struct SelectionResult {
  std::vector<size_t> selected;
  std::vector<double> selection_benefits;
  /// kComplete, or why selection stopped early with a best-so-far prefix
  /// (time budget, cancellation, injected fault — docs/ROBUSTNESS.md).
  StopReason stop_reason = StopReason::kComplete;
};

/// Algorithms 1–2 of the paper: in each of k rounds, scan all pairs to find
/// the query with the maximum conditional benefit, select it, and update the
/// remaining queries per `strategy` (resetting features when every
/// unselected query is fully covered). O(k·n²) similarity evaluations.
/// `budget` is observed once per round: on expiry the queries selected so
/// far are returned with stop_reason set (every prefix of a greedy run is a
/// valid compression).
///
/// When `pool` is non-null the per-round argmax is sharded across its
/// workers. Sharding is by fixed-width candidate blocks reduced in block
/// order with a strict comparison (lowest index wins ties), and each
/// candidate's influence sum runs entirely inside one block in ascending j
/// order — so results are bit-identical for every thread count, including
/// the serial pool-less path. If the budget fires mid-round, the round is
/// abandoned (never completed from a partial argmax) and the prefix selected
/// so far is returned.
SelectionResult AllPairsGreedySelect(CompressionState& state, size_t k,
                                     UpdateStrategy strategy,
                                     const TimeBudget& budget = {},
                                     ThreadPool* pool = nullptr);

}  // namespace isum::core

#endif  // ISUM_CORE_ALLPAIRS_H_
