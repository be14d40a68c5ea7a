#ifndef ISUM_ENGINE_WHAT_IF_H_
#define ISUM_ENGINE_WHAT_IF_H_

#include <array>
#include <cstdint>
#include <unordered_map>

#include "common/deadline.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "engine/optimizer.h"
#include "obs/metrics.h"

namespace isum::engine {

/// Bounded retry-with-exponential-backoff around transient what-if
/// failures (Status::Unavailable — today only injected faults; a real
/// optimizer RPC would surface the same code). Backoff sleeps go through
/// SleepForNanos and are jittered deterministically (docs/ROBUSTNESS.md).
struct RetryPolicy {
  /// Total tries (1 = no retry). Each retry bumps "retry.attempts".
  int max_attempts = 4;
  /// First backoff; doubles per attempt (capped), jittered to [50%, 100%].
  uint64_t initial_backoff_nanos = 100'000;  // 100us
  uint64_t max_backoff_nanos = 10'000'000;   // 10ms
  double backoff_multiplier = 2.0;
  /// Jitter seed; fixed default so replays are bit-identical.
  uint64_t jitter_seed = 0xB0FFull;
};

/// The "what-if" API [15]: costs a query under a hypothetical index
/// configuration without building indexes. Results are memoized per
/// (query, indexes of the configuration on the query's own tables): the
/// optimizer reads nothing else of the configuration, so adding an index on
/// an unrelated table is a cache hit with the same cost. Optimizer
/// invocations are counted, so the advisor's call profile (Figure 2 of the
/// paper) can be measured.
///
/// Cache keys use query object identity: a BoundQuery must stay at a stable
/// address while a WhatIfOptimizer refers to it (Workload guarantees this).
/// The memo holds only answers the optimizer can produce again, so it is
/// never persisted: enumeration checkpoints store winners and costs, and a
/// resumed run re-costs through a cold memo (docs/ROBUSTNESS.md).
///
/// Thread-safe: Cost() may be called concurrently (the advisor evaluates
/// candidate configurations in parallel). The cache is sharded 16 ways so
/// cache-hit-heavy parallel phases don't serialize on one mutex; the
/// optimizer invocation itself runs outside any lock, so concurrent misses
/// on the same key may both optimize (the second insert is a no-op).
class WhatIfOptimizer {
 public:
  explicit WhatIfOptimizer(const CostModel* cost_model)
      : optimizer_(cost_model) {}

  /// Estimated cost of `query` under `config` (memoized). Infallible thin
  /// wrapper over TryCost: with no faults configured and no budget it
  /// cannot fail; under fault injection a persistent failure is a fatal
  /// contract violation (ISUM_CHECK_OK) — fault-aware callers (the
  /// advisors) use TryCost instead.
  double Cost(const sql::BoundQuery& query, const Configuration& config);

  /// Fallible what-if call: estimated cost of `query` under `config`
  /// (memoized), observing `budget` and retrying transient failures per
  /// retry_policy(). Error returns:
  ///   kDeadlineExceeded / kCancelled — `budget` ran out (checked before
  ///     the call and between retries; a backoff never sleeps past the
  ///     deadline);
  ///   kUnavailable — the fault site "whatif.cost" kept failing after
  ///     max_attempts tries.
  /// Cache hits bypass fault injection and retries entirely: a memoized
  /// answer needs no optimizer invocation.
  StatusOr<double> TryCost(const sql::BoundQuery& query,
                           const Configuration& config,
                           const TimeBudget& budget = {});

  /// Full plan (not memoized; use for explain output).
  PlanSummary Plan(const sql::BoundQuery& query,
                   const Configuration& config) const {
    return optimizer_.Optimize(query, config);
  }

  /// Number of real optimizer invocations (cache misses). Thin view over
  /// this instance's obs::Counter; the process-wide registry mirrors the
  /// same events under "whatif.optimizer_calls" (docs/OBSERVABILITY.md).
  uint64_t optimizer_calls() const { return optimizer_calls_.Value(); }
  /// Number of calls answered from the cache.
  uint64_t cache_hits() const { return cache_hits_.Value(); }
  /// Number of retries after transient what-if failures (0 unless fault
  /// injection or a flaky backend is active). Mirrored process-wide as
  /// "retry.attempts".
  uint64_t retry_attempts() const { return retry_attempts_.Value(); }
  /// Wall-clock seconds spent inside real optimizer invocations (the "time
  /// on optimizer calls" series of the paper's Figure 2a). Accumulated
  /// across threads (sums concurrent work, like CPU time).
  double optimizer_seconds() const {
    return static_cast<double>(optimizer_nanos_.Value()) * 1e-9;
  }

  /// Zeroes the per-instance counters with atomic stores. Must not be
  /// called concurrently with Cost(): a racing Cost() may split its
  /// increments across the reset, leaving counters mutually inconsistent
  /// (e.g. calls reset but its nanos kept). Quiesce callers first, as the
  /// advisors do between phases. The registry-wide mirrors are monotonic
  /// and unaffected.
  void ResetCounters() {
    optimizer_calls_.Reset();
    cache_hits_.Reset();
    retry_attempts_.Reset();
    optimizer_nanos_.Reset();
  }
  void ClearCache() {
    for (Shard& shard : shards_) {
      MutexLock lock(shard.mutex);
      shard.cache.clear();
    }
  }

  const RetryPolicy& retry_policy() const { return retry_policy_; }
  /// Replaces the retry policy. Not thread-safe against in-flight calls;
  /// set it before handing the optimizer to workers.
  void set_retry_policy(const RetryPolicy& policy) { retry_policy_ = policy; }

 private:
  struct Key {
    const void* query;
    uint64_t config_hash;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const noexcept {
      return std::hash<const void*>()(k.query) ^
             static_cast<size_t>(k.config_hash * 0x9E3779B97F4A7C15ull);
    }
  };

  static constexpr size_t kShards = 16;
  struct Shard {
    Mutex mutex;
    std::unordered_map<Key, double, KeyHash> cache ISUM_GUARDED_BY(mutex);
  };

  Optimizer optimizer_;
  RetryPolicy retry_policy_;
  std::array<Shard, kShards> shards_;
  obs::Counter optimizer_calls_;
  obs::Counter cache_hits_;
  obs::Counter retry_attempts_;
  obs::Counter optimizer_nanos_;
};

}  // namespace isum::engine

#endif  // ISUM_ENGINE_WHAT_IF_H_
