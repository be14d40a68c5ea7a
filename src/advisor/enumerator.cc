#include "advisor/enumerator.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>

#include "common/checkpoint.h"
#include "common/fault.h"
#include "common/hash.h"
#include "common/thread_pool.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace isum::advisor {

namespace {

/// One pool candidate's evaluation, carried from round to round.
/// `queries` lists, ascending, the queries that can use the candidate
/// (CostModel::CanUseIndex); no other query's cost can change when it is
/// added. `costs[j]` is the cost of `queries[j]` under the configuration
/// plus the candidate. A non-OK `status` means the last costing failed or
/// never ran: the evaluation must not be applied, and the candidate's next
/// costing covers every query in its list. `pending` marks a candidate
/// queued this round whose costing has not started.
struct CandidateState {
  std::vector<uint32_t> queries;
  std::vector<double> costs;
  double improvement = 0.0;
  Status status = Status::Unavailable("not costed");
  bool pending = false;
};

/// Re-costs the candidate's queries marked in `stale` (all of them when
/// `full`) under `base_config` plus `candidate`, then re-sums the
/// improvement over the whole list in query order: the terms of queries
/// that cannot use the candidate are exact zeros, so the sum is the same
/// bits as one over every query.
void EvaluateCandidate(engine::WhatIfOptimizer& what_if,
                       const std::vector<WeightedQuery>& queries,
                       const engine::Configuration& base_config,
                       const engine::Index& candidate,
                       const std::vector<double>& current_cost,
                       const std::vector<uint8_t>& stale, bool full,
                       const TimeBudget& budget, CandidateState* state) {
  std::optional<engine::Configuration> trial;
  for (size_t j = 0; j < state->queries.size(); ++j) {
    const uint32_t qi = state->queries[j];
    if (!full && stale[qi] == 0) continue;
    if (!trial.has_value()) {
      trial.emplace(base_config);
      trial->Add(candidate);
    }
    const StatusOr<double> c =
        what_if.TryCost(*queries[qi].query, *trial, budget);
    if (!c.ok()) {
      state->status = c.status();
      return;
    }
    state->costs[j] = *c;
  }
  state->improvement = 0.0;
  for (size_t j = 0; j < state->queries.size(); ++j) {
    const uint32_t qi = state->queries[j];
    state->improvement +=
        queries[qi].weight * (current_cost[qi] - state->costs[j]);
  }
  state->status = Status::OK();
}

/// One CandidateState per pool entry, each listing the queries that can
/// use it. Only the queries on a candidate's table are tested.
std::vector<CandidateState> BuildCandidateStates(
    const std::vector<WeightedQuery>& queries,
    const std::vector<engine::Index>& pool, const catalog::Catalog& catalog) {
  std::vector<std::vector<uint32_t>> queries_on_table(catalog.num_tables());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    for (const sql::BoundTableRef& ref : queries[qi].query->tables) {
      std::vector<uint32_t>& on_table =
          queries_on_table[static_cast<size_t>(ref.table)];
      if (on_table.empty() || on_table.back() != qi) {
        on_table.push_back(static_cast<uint32_t>(qi));
      }
    }
  }
  std::vector<CandidateState> states(pool.size());
  for (size_t i = 0; i < pool.size(); ++i) {
    for (const uint32_t qi :
         queries_on_table[static_cast<size_t>(pool[i].table())]) {
      if (engine::CostModel::CanUseIndex(*queries[qi].query, pool[i])) {
        states[i].queries.push_back(qi);
      }
    }
    states[i].costs.resize(states[i].queries.size());
  }
  return states;
}

/// ---- Enumeration checkpointing ----
///
/// Section layout of the `.enum` checkpoint (container format in
/// common/checkpoint.h):
///   meta     fingerprint, done, stop_reason, configurations_explored,
///            initial_cost bits, total_cost bits
///   winners  pool indices of the added indexes, in round order
///   costs    per-query current cost under the checkpointed configuration
///
/// Restore replays the winner sequence instead of serializing the
/// Configuration object: pool indices plus the bit-exact per-query costs
/// fully determine the derived state, and the replay is O(rounds). The
/// what-if memo is not stored: it only caches answers the optimizer gives
/// again, so continued rounds re-cost through a cold memo, and a snapshot
/// is the same bytes at any thread count. The stored initial cost must
/// match the resumed run's freshly computed one bit-for-bit before anything
/// is applied — that proves the cost model, stats and workload are the
/// ones the checkpoint came from. Unknown sections (the memo section older
/// builds wrote as id 4) are ignored.
constexpr uint32_t kEnumMetaSection = 1;
constexpr uint32_t kEnumWinnersSection = 2;
constexpr uint32_t kEnumCostsSection = 3;

uint64_t DoubleBits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double DoubleFromBits(uint64_t bits) {
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

/// Identity of one enumeration work unit: the weighted workload, the
/// candidate pool (by canonical index definition, order-sensitive) and the
/// search constraints. Thread count is deliberately excluded — enumeration
/// is bit-identical across thread counts, so a checkpoint written at one
/// concurrency resumes at another. The tag names the snapshot layout, not
/// the what-if memo key, which no snapshot depends on; a snapshot under any
/// other tag is foreign and the run starts fresh.
uint64_t EnumerationFingerprint(const std::vector<WeightedQuery>& queries,
                                const std::vector<engine::Index>& pool,
                                int max_indexes,
                                uint64_t storage_budget_bytes) {
  uint64_t h = HashBytes("enum-projected");
  h = HashCombine(h, queries.size());
  for (const WeightedQuery& wq : queries) {
    h = HashCombine(h, DoubleBits(wq.weight));
  }
  h = HashCombine(h, pool.size());
  for (const engine::Index& index : pool) {
    h = HashCombine(h, HashBytes(index.CanonicalKey()));
  }
  h = HashCombine(h, static_cast<uint64_t>(max_indexes));
  h = HashCombine(h, storage_budget_bytes);
  return h;
}

struct EnumSnapshot {
  uint64_t fingerprint = 0;
  uint64_t done = 0;
  uint64_t stop_reason = 0;
  uint64_t configurations_explored = 0;
  uint64_t initial_cost_bits = 0;
  uint64_t total_cost_bits = 0;
  std::vector<uint64_t> winners;
  std::vector<double> costs;
};

void EncodeEnumSnapshot(const EnumSnapshot& snapshot,
                        CheckpointWriter* writer) {
  writer->BeginSection(kEnumMetaSection);
  writer->AppendU64(snapshot.fingerprint);
  writer->AppendU64(snapshot.done);
  writer->AppendU64(snapshot.stop_reason);
  writer->AppendU64(snapshot.configurations_explored);
  writer->AppendU64(snapshot.initial_cost_bits);
  writer->AppendU64(snapshot.total_cost_bits);
  writer->EndSection();
  writer->BeginSection(kEnumWinnersSection);
  writer->AppendU64Vector(snapshot.winners);
  writer->EndSection();
  writer->BeginSection(kEnumCostsSection);
  writer->AppendF64Vector(snapshot.costs);
  writer->EndSection();
}

/// Newest valid epoch decoded into an EnumSnapshot, or kNotFound when no
/// usable checkpoint exists (absent lineage, fingerprint mismatch,
/// structurally invalid payload). Callers must still validate the initial
/// cost bits against a fresh costing pass before applying anything.
StatusOr<EnumSnapshot> LoadEnumSnapshot(CheckpointStore& store,
                                        uint64_t expected_fingerprint) {
  StatusOr<CheckpointReader> reader = store.LoadLatest();
  if (!reader.ok()) return reader.status();
  EnumSnapshot snapshot;
  StatusOr<CheckpointCursor> meta = reader->Section(kEnumMetaSection);
  if (!meta.ok()) return meta.status();
  ISUM_ASSIGN_OR_RETURN(snapshot.fingerprint, meta->ReadU64());
  ISUM_ASSIGN_OR_RETURN(snapshot.done, meta->ReadU64());
  ISUM_ASSIGN_OR_RETURN(snapshot.stop_reason, meta->ReadU64());
  ISUM_ASSIGN_OR_RETURN(snapshot.configurations_explored, meta->ReadU64());
  ISUM_ASSIGN_OR_RETURN(snapshot.initial_cost_bits, meta->ReadU64());
  ISUM_ASSIGN_OR_RETURN(snapshot.total_cost_bits, meta->ReadU64());
  if (snapshot.fingerprint != expected_fingerprint) {
    return Status::NotFound("checkpoint fingerprint mismatch");
  }
  if (snapshot.stop_reason > static_cast<uint64_t>(StopReason::kFault)) {
    return Status::ParseError("checkpoint stop_reason out of range");
  }
  StatusOr<CheckpointCursor> winners = reader->Section(kEnumWinnersSection);
  if (!winners.ok()) return winners.status();
  ISUM_ASSIGN_OR_RETURN(snapshot.winners, winners->ReadU64Vector());
  StatusOr<CheckpointCursor> costs = reader->Section(kEnumCostsSection);
  if (!costs.ok()) return costs.status();
  ISUM_ASSIGN_OR_RETURN(snapshot.costs, costs->ReadF64Vector());
  return snapshot;
}

}  // namespace

EnumerationResult GreedyEnumerate(
    engine::WhatIfOptimizer& what_if,
    const std::vector<WeightedQuery>& queries,
    const std::vector<engine::Index>& pool, int max_indexes,
    uint64_t storage_budget_bytes, const catalog::Catalog& catalog,
    const TimeBudget& budget, int num_threads) {
  ISUM_TRACE_SPAN_VAR(span, "advisor/enumerate");
  span.Arg("pool", static_cast<uint64_t>(pool.size()))
      .Arg("max_indexes", max_indexes)
      .Arg("queries", static_cast<uint64_t>(queries.size()));
  static obs::Counter* const rounds_counter =
      obs::MetricsRegistry::Global().GetCounter("advisor.enumeration_rounds");
  static obs::Counter* const explored_counter =
      obs::MetricsRegistry::Global().GetCounter(
          "advisor.configurations_explored");
  // Process-wide what-if counters, sampled per round so journal enum_round
  // events can attribute this round's cache hits and optimizer calls.
  static obs::Counter* const whatif_calls_counter =
      obs::MetricsRegistry::Global().GetCounter("whatif.optimizer_calls");
  static obs::Counter* const whatif_hits_counter =
      obs::MetricsRegistry::Global().GetCounter("whatif.cache_hits");
  EnumerationResult result;

  // Per-query current cost under the growing (initially empty) configuration.
  // Initial costing is exempt from the deadline (bounded work, and without
  // it a truncated result would report meaningless zero costs); it still
  // honors cancellation and fault handling.
  const TimeBudget initial_budget(Deadline(), budget.token());
  std::vector<double> current_cost(queries.size());
  double total_cost = 0.0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const StatusOr<double> c =
        what_if.TryCost(*queries[i].query, result.configuration, initial_budget);
    if (!c.ok()) {
      result.stop_reason = TimeBudget::ReasonFor(c.status());
      result.initial_cost = total_cost;
      result.final_cost = total_cost;
      NoteStopReason(result.stop_reason);
      if (obs::Journal::Global().enabled()) {
        obs::Journal::Global().EnumEnd(
            result.configuration.size(), result.initial_cost,
            result.final_cost, StopReasonToString(result.stop_reason));
      }
      return result;
    }
    current_cost[i] = *c;
    total_cost += queries[i].weight * current_cost[i];
  }
  result.initial_cost = total_cost;

  std::unique_ptr<ThreadPool> pool_threads;
  if (num_threads > 1) {
    pool_threads = std::make_unique<ThreadPool>(static_cast<size_t>(num_threads));
  }

  std::vector<CandidateState> states =
      BuildCandidateStates(queries, pool, catalog);
  // Queries whose cost the last winner changed; nothing before round 0,
  // where every candidate is costed in full.
  std::vector<uint8_t> stale(queries.size(), 0);
  std::vector<bool> used(pool.size(), false);
  uint64_t used_storage = 0;
  uint64_t round_index = 0;

  // Checkpoint/resume (header comment and docs/ROBUSTNESS.md): the restore
  // runs only after the fresh initial costing above, so the stored initial
  // cost can be validated bit-for-bit before anything is applied.
  const CheckpointConfig ckpt_config = AmbientCheckpoint();
  std::unique_ptr<CheckpointStore> ckpt_store;
  std::vector<size_t> winner_ids;  // pool indices in add order
  bool restored_done = false;
  if (ckpt_config.enabled()) {
    const uint64_t fingerprint = EnumerationFingerprint(
        queries, pool, max_indexes, storage_budget_bytes);
    ckpt_store = std::make_unique<CheckpointStore>(ckpt_config.path + ".enum",
                                                   fingerprint);
    StatusOr<EnumSnapshot> snapshot = LoadEnumSnapshot(*ckpt_store, fingerprint);
    if (snapshot.ok() &&
        snapshot->initial_cost_bits == DoubleBits(result.initial_cost) &&
        snapshot->costs.size() == queries.size() &&
        snapshot->winners.size() <= static_cast<size_t>(max_indexes)) {
      bool winners_valid = true;
      std::vector<bool> replayed(pool.size(), false);
      for (const uint64_t w : snapshot->winners) {
        if (w >= pool.size() || replayed[w]) {
          winners_valid = false;
          break;
        }
        replayed[w] = true;
      }
      if (winners_valid) {
        for (const uint64_t w : snapshot->winners) {
          const size_t i = static_cast<size_t>(w);
          used[i] = true;
          used_storage += pool[i].SizeBytes(catalog);
          result.configuration.Add(pool[i]);
          winner_ids.push_back(i);
        }
        round_index = winner_ids.size();
        result.configurations_explored = snapshot->configurations_explored;
        current_cost = std::move(snapshot->costs);
        total_cost = DoubleFromBits(snapshot->total_cost_bits);
        restored_done = snapshot->done != 0;
        obs::Journal::Global().CkptRestore(
            "enum", ckpt_store->loaded_epoch(), winner_ids.size(),
            obs::SelectionOrderHash(winner_ids.data(), winner_ids.size()),
            restored_done ? 1 : 0);
      }
    }
  }
  // Best-effort epoch write: a failed write is counted
  // (ckpt.write_failures) but never fails the run — losing resumability
  // must not lose the result.
  auto write_checkpoint = [&](bool done) {
    EnumSnapshot snapshot;
    snapshot.fingerprint = ckpt_store->fingerprint();
    snapshot.done = done ? 1 : 0;
    snapshot.stop_reason = static_cast<uint64_t>(result.stop_reason);
    snapshot.configurations_explored = result.configurations_explored;
    snapshot.initial_cost_bits = DoubleBits(result.initial_cost);
    snapshot.total_cost_bits = DoubleBits(total_cost);
    snapshot.winners.assign(winner_ids.begin(), winner_ids.end());
    snapshot.costs = current_cost;
    CheckpointWriter writer;
    EncodeEnumSnapshot(snapshot, &writer);
    const uint64_t epoch = ckpt_store->next_epoch();
    if (!ckpt_store->WriteEpoch(writer).ok()) return;
    obs::Journal::Global().CkptWrite("enum", epoch, winner_ids.size(),
                                     ckpt_store->last_write_bytes());
  };

  while (!restored_done &&
         static_cast<int>(result.configuration.size()) < max_indexes) {
    const Status round_check = budget.CheckCancelled();
    if (!round_check.ok()) {
      result.stop_reason = TimeBudget::ReasonFor(round_check);
      break;  // anytime: keep what we have
    }
    const Status round_fault = ISUM_FAULT_POINT("advisor.enumerate");
    if (!round_fault.ok()) {
      result.stop_reason = TimeBudget::ReasonFor(round_fault);
      break;
    }
    // Candidates eligible this round (unused + fitting the budget).
    std::vector<size_t> eligible;
    for (size_t i = 0; i < pool.size(); ++i) {
      if (used[i]) continue;
      if (storage_budget_bytes > 0 &&
          used_storage + pool[i].SizeBytes(catalog) > storage_budget_bytes) {
        continue;
      }
      eligible.push_back(i);
    }
    if (eligible.empty()) break;
    rounds_counter->Add(1);
    explored_counter->Add(eligible.size());
    result.configurations_explored += eligible.size();
    const uint64_t round_calls_before = whatif_calls_counter->Value();
    const uint64_t round_hits_before = whatif_hits_counter->Value();

    // When a budget is attached, candidate evaluations run under a per-round
    // child token: the first worker to observe expiry/cancellation fires it,
    // so the rest of the batch is skipped instead of costed pointlessly.
    // With no budget the round token stays null (zero-cost path).
    CancellationToken round_cancel;
    if (budget.limited()) round_cancel = budget.token().Child();
    const TimeBudget round_budget(budget.deadline(), round_cancel);

    // Candidates to cost this round: every query in the list of one whose
    // last costing did not complete, else only the queries that can also
    // use the last winner. The rest keep last round's costs, which no
    // index added since can have changed.
    struct Work {
      size_t pool_index;
      bool full;
    };
    std::vector<Work> work;
    for (const size_t i : eligible) {
      CandidateState& state = states[i];
      const bool full = !state.status.ok();
      if (!full && std::none_of(state.queries.begin(), state.queries.end(),
                                [&](uint32_t qi) { return stale[qi] != 0; })) {
        continue;
      }
      work.push_back({i, full});
      state.pending = true;
    }
    auto evaluate = [&](size_t w) {
      CandidateState& state = states[work[w].pool_index];
      state.pending = false;
      EvaluateCandidate(what_if, queries, result.configuration,
                        pool[work[w].pool_index], current_cost, stale,
                        work[w].full, round_budget, &state);
      if (!state.status.ok() &&
          state.status.code() != StatusCode::kUnavailable &&
          round_cancel.cancellable()) {
        round_cancel.Cancel();
      }
    };
    if (pool_threads != nullptr) {
      pool_threads->ParallelFor(work.size(), evaluate, round_cancel);
    } else {
      for (size_t w = 0; w < work.size(); ++w) {
        evaluate(w);
        if (round_cancel.cancelled()) break;
      }
    }

    // A deadline/cancellation mid-round invalidates the round: which
    // candidates finished depends on timing, so applying a winner here would
    // make the output nondeterministic. Keep the configuration from the
    // completed rounds instead. That includes a cancellation that only
    // skipped candidates, leaving them pending.
    Status stop_status;
    size_t faulted = 0;
    bool cut = false;
    for (const size_t i : eligible) {
      const CandidateState& state = states[i];
      if (state.pending) {
        cut = true;
      } else if (state.status.ok()) {
        continue;
      } else if (state.status.code() == StatusCode::kUnavailable) {
        ++faulted;
      } else if (stop_status.ok()) {
        stop_status = state.status;
      }
    }
    if (stop_status.ok() && cut) {
      stop_status = budget.CheckCancelled();
      if (stop_status.ok()) stop_status = Status::Cancelled("round cut short");
    }
    if (!stop_status.ok()) {
      result.stop_reason = TimeBudget::ReasonFor(stop_status);
      break;
    }
    if (faulted == eligible.size()) {
      // Every candidate failed persistently: nothing left to cost.
      result.stop_reason = StopReason::kFault;
      break;
    }

    // Deterministic reduction: best improvement, ties to the lowest index.
    // Candidates whose costing failed are treated as non-improving.
    size_t best_i = pool.size();
    double best_improvement = 0.0;
    for (const size_t i : eligible) {
      if (!states[i].status.ok()) continue;
      if (states[i].improvement > best_improvement) {
        best_improvement = states[i].improvement;
        best_i = i;
      }
    }
    if (best_i == pool.size()) break;

    if (obs::Journal::Global().enabled()) {
      obs::Journal::Global().EnumRound(
          round_index, eligible.size(), best_i, best_improvement,
          whatif_hits_counter->Value() - round_hits_before,
          whatif_calls_counter->Value() - round_calls_before);
    }
    ++round_index;
    used[best_i] = true;
    used_storage += pool[best_i].SizeBytes(catalog);
    result.configuration.Add(pool[best_i]);
    // The winner changes the cost of exactly the queries that can use it;
    // those are the stale ones next round.
    std::fill(stale.begin(), stale.end(), 0);
    const CandidateState& winner = states[best_i];
    for (size_t j = 0; j < winner.queries.size(); ++j) {
      current_cost[winner.queries[j]] = winner.costs[j];
      stale[winner.queries[j]] = 1;
    }
    total_cost -= best_improvement;
    if (ckpt_store != nullptr) {
      winner_ids.push_back(best_i);
      // The write after the loop records the last round, done.
      if (static_cast<int>(result.configuration.size()) < max_indexes) {
        write_checkpoint(/*done=*/false);
      }
    }
  }

  result.final_cost = total_cost;
  if (ckpt_store != nullptr && !restored_done) {
    write_checkpoint(result.stop_reason == StopReason::kComplete);
  }
  NoteStopReason(result.stop_reason);
  if (obs::Journal::Global().enabled()) {
    obs::Journal::Global().EnumEnd(result.configuration.size(),
                                   result.initial_cost, result.final_cost,
                                   StopReasonToString(result.stop_reason));
  }
  return result;
}

}  // namespace isum::advisor
