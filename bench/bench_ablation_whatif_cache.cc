// Ablation (DESIGN.md design-choice index): what the what-if memoization and
// the usability pruning in greedy enumeration buy. Enumeration costs a
// candidate only against the queries that can use it, and after a round
// only the queries that can also use the winner; the memo keys on the
// configuration projected onto each query's own tables. Reports, per
// workload size: real optimizer invocations, memo hits, and the calls
// avoided against an unpruned enumerator (every candidate x every query x
// every greedy round).

#include <algorithm>
#include <cstdio>

#include "bench_util.h"

using namespace isum;

int main(int argc, char** argv) {
  isum::bench::ObsScope obs_scope(argc, argv);
  const bool csv = eval::WantCsv(argc, argv);
  const double scale = eval::ScaleArg(argc, argv);
  const int mul = scale >= 2.0 ? 2 : 1;

  eval::Table table({"n_queries", "optimizer_calls", "cache_hits",
                     "calls_avoided", "avoided_pct", "naive_calls_est"});
  for (int templates : {10, 30, 60, 91}) {
    workload::GeneratorOptions gen;
    gen.instances_per_template = mul;
    gen.max_templates = templates;
    workload::GeneratedWorkload env = workload::MakeTpcds(gen);

    std::vector<advisor::WeightedQuery> queries;
    for (size_t i = 0; i < env.workload->size(); ++i) {
      queries.push_back({&env.workload->query(i).bound, 1.0});
    }
    advisor::TuningOptions options;
    options.max_indexes = 20;
    advisor::DtaStyleAdvisor advisor(env.cost_model.get());
    const advisor::TuningResult result = advisor.Tune(queries, options);

    // A naive enumerator re-costs every query for every candidate trial.
    const double naive = static_cast<double>(result.configurations_explored) *
                         static_cast<double>(queries.size());
    const double avoided =
        std::max(0.0, naive - static_cast<double>(result.optimizer_calls));
    table.AddRow(StrFormat("%zu", queries.size()),
                 {static_cast<double>(result.optimizer_calls),
                  static_cast<double>(result.cache_hits), avoided,
                  100.0 * avoided / std::max(1.0, naive), naive});
  }
  table.Print("Ablation: optimizer-call savings from memoization + "
              "usability pruning (TPC-DS-like, full tuning)",
              csv);
  std::printf("\nExpected shape: real optimizer calls grow far slower than "
              "the naive candidate x query x round product; savings rate "
              "rises with workload size.\n");
  return obs_scope.ExitCode();
}
