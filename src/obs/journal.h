#ifndef ISUM_OBS_JOURNAL_H_
#define ISUM_OBS_JOURNAL_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace isum::obs {

/// Decision-provenance journal: the `isum-events-v1` JSONL stream.
///
/// Where metrics answer "how much" and traces answer "how long", the journal
/// answers *why*: which query won each greedy round and by what margin,
/// which index each enumeration round added, what the budget machinery did
/// to the result, and how estimated benefit compared to evaluated benefit.
/// Bench drivers open it with --journal=<path>; `tracecat explain`
/// reconstructs the run from it (docs/OBSERVABILITY.md documents the full
/// schema and a worked walkthrough).
///
/// Format: one flat JSON object per line. Every line carries
///   "event" — the record type (see the typed emitters below),
///   "seq"   — a dense 0-based sequence number (gap = truncated file),
///   "t_us"  — microseconds since Open(), from an injectable clock.
/// The first line is always `journal_begin` (which carries the schema tag)
/// and a cleanly closed journal ends with `journal_end`.
///
/// Cost model: journaling is off by default; every emitter starts with one
/// relaxed atomic load and returns immediately when no journal is open.
/// Events are buffered stdio writes under a mutex — emitters sit at
/// per-round/per-decision frequency (k events per compression, one per
/// enumeration round), never inside the O(n²) inner loops. Events whose
/// stop_reason is not "complete" flush the stream eagerly so truncated
/// runs leave complete artifacts on disk (docs/ROBUSTNESS.md).
///
/// Determinism: journaling must never influence control flow — callers may
/// not branch on journal state beyond the enabled() fast path, and tests
/// assert only on event contents that are deterministic for a fixed
/// workload (ids, rounds, hashes), never on timestamps.
class Journal {
 public:
  /// The process-wide journal every library layer emits into.
  static Journal& Global();

  /// Opens (truncates) `path` and emits `journal_begin`. `label` names the
  /// producing run (bench binary, test name). Returns false without
  /// enabling when the file cannot be created. Reopening closes the
  /// previous journal first.
  bool Open(const std::string& path, const std::string& label);

  /// Emits `journal_end`, flushes, and closes. No-op when closed.
  void Close();

  /// One relaxed load: the emitters' fast-path guard. Callers may use it to
  /// skip argument computation, never to change what the library does.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Test hook: replaces the timestamp clock with a deterministic source
  /// (nullptr restores the steady clock). Returns nanoseconds.
  using ClockFn = uint64_t (*)();
  void SetClockForTest(ClockFn fn) {
    clock_.store(fn, std::memory_order_relaxed);
  }

  /// Lines written since Open() (including journal_begin). For tests.
  uint64_t events_written() const {
    return events_written_.load(std::memory_order_relaxed);
  }

  /// Flushes buffered events to disk (also done automatically by Close()
  /// and by any event carrying an abnormal stop_reason).
  void Flush();

  // ---- typed emitters (all no-ops while closed) ----

  /// Greedy selection started: `n_queries` inputs, target size `k`.
  void CompressBegin(uint64_t n_queries, uint64_t k, const char* algorithm,
                     uint64_t threads);
  /// Round `round` chose `query` with marginal `benefit`. `gap` is the
  /// margin over the runner-up candidate (-1 when the round had no
  /// runner-up); `shard` is the argmax shard the winner came from (always 0
  /// for the serial summary algorithm); `eligible` the candidate count.
  void SelectRound(uint64_t round, uint64_t query, double benefit, double gap,
                   uint64_t shard, uint64_t eligible);
  /// Algorithm 2, line 12: every remaining query was fully covered, so
  /// unselected features were reset to their original weights.
  void FeatureReset(uint64_t selected_so_far);
  /// Selection finished: `selection_hash` is SelectionOrderHash() over the
  /// chosen ids in order (tracecat explain recomputes and verifies it).
  void CompressEnd(uint64_t selected, uint64_t selection_hash,
                   double benefit_sum, const char* stop_reason);

  /// Enumeration round `round` evaluated `candidates` configurations and
  /// added pool index `best_index` with `best_improvement`. `cache_hits` /
  /// `optimizer_calls` are this round's what-if deltas.
  void EnumRound(uint64_t round, uint64_t candidates, uint64_t best_index,
                 double best_improvement, uint64_t cache_hits,
                 uint64_t optimizer_calls);
  void EnumEnd(uint64_t config_size, double initial_cost, double final_cost,
               const char* stop_reason);

  /// A transient failure at `site` is being retried (attempt is 1-based).
  void Retry(const char* site, uint64_t attempt, uint64_t backoff_nanos);
  /// A failure at `site` was surfaced to the caller (persistent or
  /// non-retryable); `code` is the Status code name.
  void Fault(const char* site, const char* code);

  /// Budget consumption timeline: rate-limited internally to one event per
  /// ~250ms of journal-clock time, so budget polls can call this freely.
  void BudgetTick(double remaining_seconds);
  /// The budget stopped the run. Deduplicated per consecutive `reason`
  /// (identity-compared, so pass StopReasonToString() results).
  void BudgetStop(const char* reason);

  /// A checkpoint epoch was written: `phase` names the checkpointed phase
  /// (only "enum", the enumeration phase, today), `rounds` the rounds
  /// captured, `bytes` the serialized image size.
  void CkptWrite(const char* phase, uint64_t epoch, uint64_t rounds,
                 uint64_t bytes);
  /// A run resumed from a checkpoint: `restored` rounds were replayed and
  /// `prefix_hash` is SelectionOrderHash() over the restored prefix (for
  /// enumeration, the restored winners' candidate ids in round order).
  /// `done` is 1 when the checkpointed run had already finished.
  void CkptRestore(const char* phase, uint64_t epoch, uint64_t restored,
                   uint64_t prefix_hash, uint64_t done);

  /// Post-eval attribution for one selected query: the benefit selection
  /// estimated vs. the cost reduction the recommended configuration
  /// realized on that query.
  void Attribution(uint64_t query, double weight, double estimated_benefit,
                   double realized_benefit);
  void PipelineEnd(const char* algorithm, uint64_t k,
                   double improvement_percent, const char* stop_reason);

 private:
  Journal() = default;
  uint64_t NowNanos() const;
  /// Appends the common prefix + `body` (the comma-led field tail, e.g.
  /// `,"round":3`) as one line; flushes when `flush` is set.
  void EmitLine(const char* event, const char* body, bool flush);
  void CloseLocked() ISUM_REQUIRES(mu_);

  std::atomic<bool> enabled_{false};
  std::atomic<ClockFn> clock_{nullptr};
  std::atomic<uint64_t> events_written_{0};
  std::atomic<uint64_t> last_tick_nanos_{0};
  std::atomic<const char*> last_stop_reason_{nullptr};
  mutable Mutex mu_;
  std::FILE* file_ ISUM_GUARDED_BY(mu_) = nullptr;
  uint64_t seq_ ISUM_GUARDED_BY(mu_) = 0;
  uint64_t open_nanos_ ISUM_GUARDED_BY(mu_) = 0;
};

/// FNV-1a over a selection order: equal selections <=> equal hashes. The
/// single definition shared by compress_end events, the bench drivers'
/// recorded `selection_hash`, and tracecat explain's verification.
inline uint64_t SelectionOrderHash(const size_t* selected, size_t count) {
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < count; ++i) {
    h ^= static_cast<uint64_t>(selected[i]);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace isum::obs

#endif  // ISUM_OBS_JOURNAL_H_
