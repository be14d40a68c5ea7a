// Oracle tests for incremental greedy enumeration: GreedyEnumerate carries
// per-candidate costs across rounds and re-costs only the queries the last
// winner can change. A naive enumerator that re-costs every eligible
// candidate against every query with a fresh optimizer must pick the same
// winners at the same cost bits, and under injected what-if faults the
// carried costs must still add up to a fresh costing of the result.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <unordered_set>
#include <vector>

#include "advisor/candidate_generation.h"
#include "advisor/enumerator.h"
#include "common/fault.h"
#include "workload/workload_factory.h"

namespace isum::advisor {
namespace {

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

/// The first `limit` queries, with weights that are not all equal.
std::vector<WeightedQuery> WeightedQueries(const workload::Workload& wl,
                                           size_t limit = SIZE_MAX) {
  std::vector<WeightedQuery> queries;
  for (size_t i = 0; i < std::min(limit, wl.size()); ++i) {
    queries.push_back({&wl.query(i).bound, 1.0 + 0.25 * static_cast<double>(i % 5)});
  }
  return queries;
}

/// The union of the queries' candidates, in first-seen order.
std::vector<engine::Index> CandidatePool(
    const std::vector<WeightedQuery>& queries, const stats::StatsManager& stats) {
  std::vector<engine::Index> pool;
  std::unordered_set<engine::Index> seen;
  for (const WeightedQuery& wq : queries) {
    for (engine::Index& index : GenerateCandidates(*wq.query, stats)) {
      if (seen.insert(index).second) pool.push_back(std::move(index));
    }
  }
  return pool;
}

struct NaiveResult {
  std::vector<size_t> winners;  ///< pool indices in add order
  double initial_cost = 0.0;
  double final_cost = 0.0;
  uint64_t configurations_explored = 0;
};

/// The greedy rule without memo, usability lists or carried costs: every
/// round costs every eligible candidate against every query with a fresh
/// optimizer and sums the improvement over all queries in query order.
NaiveResult NaiveGreedy(const engine::CostModel* cost_model,
                        const std::vector<WeightedQuery>& queries,
                        const std::vector<engine::Index>& pool,
                        int max_indexes, uint64_t storage_budget_bytes,
                        const catalog::Catalog& catalog) {
  NaiveResult out;
  engine::Configuration config;
  std::vector<double> current(queries.size());
  double total = 0.0;
  {
    const engine::Optimizer fresh(cost_model);
    for (size_t q = 0; q < queries.size(); ++q) {
      current[q] = fresh.Cost(*queries[q].query, config);
      total += queries[q].weight * current[q];
    }
  }
  out.initial_cost = total;
  std::vector<bool> used(pool.size(), false);
  uint64_t used_storage = 0;
  while (static_cast<int>(config.size()) < max_indexes) {
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
    out.configurations_explored += eligible.size();
    const engine::Optimizer fresh(cost_model);
    size_t best = pool.size();
    double best_improvement = 0.0;
    std::vector<double> best_costs;
    for (const size_t i : eligible) {
      engine::Configuration trial = config;
      trial.Add(pool[i]);
      double improvement = 0.0;
      std::vector<double> costs(queries.size());
      for (size_t q = 0; q < queries.size(); ++q) {
        costs[q] = fresh.Cost(*queries[q].query, trial);
        improvement += queries[q].weight * (current[q] - costs[q]);
      }
      if (improvement > best_improvement) {
        best_improvement = improvement;
        best = i;
        best_costs = std::move(costs);
      }
    }
    if (best == pool.size()) break;
    used[best] = true;
    used_storage += pool[best].SizeBytes(catalog);
    config.Add(pool[best]);
    out.winners.push_back(best);
    current = std::move(best_costs);
    total -= best_improvement;
  }
  out.final_cost = total;
  return out;
}

/// GreedyEnumerate at 1 and 8 threads against NaiveGreedy on the first
/// `max_queries` queries of one instance per template: same winners in the
/// same order, same initial and final cost bits, same configurations
/// explored. The storage budget (a quarter of the base data) binds, so
/// eligibility changes between rounds too.
void ExpectSameAsNaiveGreedy(const workload::GeneratedWorkload& env,
                             int max_indexes, size_t max_queries = SIZE_MAX) {
  const std::vector<WeightedQuery> queries =
      WeightedQueries(*env.workload, max_queries);
  const std::vector<engine::Index> pool = CandidatePool(queries, *env.stats);
  ASSERT_FALSE(pool.empty()) << env.name;
  const uint64_t storage_budget = env.catalog->total_data_bytes() / 4;
  const NaiveResult naive =
      NaiveGreedy(env.cost_model.get(), queries, pool, max_indexes,
                  storage_budget, *env.catalog);
  ASSERT_GE(naive.winners.size(), 2u) << env.name;

  for (const int threads : {1, 8}) {
    SCOPED_TRACE(::testing::Message() << env.name << ", " << threads
                                      << " thread(s)");
    engine::WhatIfOptimizer what_if(env.cost_model.get());
    const EnumerationResult got =
        GreedyEnumerate(what_if, queries, pool, max_indexes, storage_budget,
                        *env.catalog, TimeBudget(), threads);
    EXPECT_EQ(got.stop_reason, StopReason::kComplete);
    ASSERT_EQ(got.configuration.size(), naive.winners.size());
    for (size_t r = 0; r < naive.winners.size(); ++r) {
      EXPECT_TRUE(got.configuration.indexes()[r] == pool[naive.winners[r]])
          << "round " << r;
    }
    EXPECT_EQ(Bits(got.initial_cost), Bits(naive.initial_cost));
    EXPECT_EQ(Bits(got.final_cost), Bits(naive.final_cost));
    EXPECT_EQ(got.configurations_explored, naive.configurations_explored);
  }
}

workload::GeneratorOptions OneInstancePerTemplate() {
  workload::GeneratorOptions gen;
  gen.instances_per_template = 1;
  return gen;
}

TEST(EnumerationOracle, Tpch) {
  ExpectSameAsNaiveGreedy(workload::MakeTpch(OneInstancePerTemplate()), 6);
}

TEST(EnumerationOracle, Tpcds) {
  ExpectSameAsNaiveGreedy(workload::MakeTpcds(OneInstancePerTemplate()), 4);
}

TEST(EnumerationOracle, Dsb) {
  ExpectSameAsNaiveGreedy(workload::MakeDsb(OneInstancePerTemplate()), 4);
}

TEST(EnumerationOracle, RealM) {
  // Real-M plans are wide joins over hundreds of tables; a prefix of the
  // templates keeps the naive enumerator to a few seconds.
  ExpectSameAsNaiveGreedy(workload::MakeRealM(OneInstancePerTemplate()), 4,
                          /*max_queries=*/80);
}

/// Injected what-if errors without retries make candidates fail partway
/// through a round; a failed candidate must be re-costed in full before it
/// can win. If a stale carried cost survived, the final cost would drift
/// from a fresh costing of the returned configuration.
TEST(EnumerationOracle, CarriedCostsSurviveFaults) {
  const workload::GeneratedWorkload env =
      workload::MakeTpch(OneInstancePerTemplate());
  const std::vector<WeightedQuery> queries = WeightedQueries(*env.workload);
  const std::vector<engine::Index> pool = CandidatePool(queries, *env.stats);
  const engine::Optimizer fresh(env.cost_model.get());
  for (const int threads : {1, 8}) {
    SCOPED_TRACE(::testing::Message() << threads << " thread(s)");
    engine::WhatIfOptimizer what_if(env.cost_model.get());
    engine::RetryPolicy no_retry;
    no_retry.max_attempts = 1;
    what_if.set_retry_policy(no_retry);
    // Warm the initial costing so the faults land on candidate costings.
    for (const WeightedQuery& wq : queries) {
      (void)what_if.Cost(*wq.query, engine::Configuration());
    }
    ASSERT_TRUE(FaultInjector::Global()
                    .Configure("{\"seed\":7};"
                               "{\"site\":\"whatif.cost\",\"kind\":\"error\","
                               "\"p\":0.05}")
                    .ok());
    const EnumerationResult got =
        GreedyEnumerate(what_if, queries, pool, /*max_indexes=*/8,
                        /*storage_budget_bytes=*/0, *env.catalog,
                        TimeBudget(), threads);
    const uint64_t injected = FaultInjector::Global().injected();
    FaultInjector::Global().Reset();
    EXPECT_GT(injected, 0u);
    EXPECT_GE(got.configuration.size(), 2u);

    double fresh_total = 0.0;
    for (const WeightedQuery& wq : queries) {
      fresh_total += wq.weight * fresh.Cost(*wq.query, got.configuration);
    }
    EXPECT_LE(std::abs(got.final_cost - fresh_total),
              1e-9 * std::abs(fresh_total))
        << "final " << got.final_cost << " vs fresh " << fresh_total;
  }
}

}  // namespace
}  // namespace isum::advisor
