#include "core/isum.h"

#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace isum::core {

namespace {

const char* AlgorithmName(SelectionAlgorithm algorithm) {
  switch (algorithm) {
    case SelectionAlgorithm::kAllPairs:
      return "all-pairs";
    case SelectionAlgorithm::kSummaryFeatures:
      return "summary-features";
  }
  return "unknown";
}

struct CompressMetrics {
  obs::Counter* runs;
  obs::Counter* input_queries;
  obs::Counter* selected_queries;

  static const CompressMetrics& Get() {
    static const CompressMetrics m = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
      return CompressMetrics{registry.GetCounter("compress.runs"),
                             registry.GetCounter("compress.input_queries"),
                             registry.GetCounter("compress.selected_queries")};
    }();
    return m;
  }
};

SelectionResult RunSelection(CompressionState& state, size_t k,
                             const IsumOptions& options,
                             const TimeBudget& budget) {
  ISUM_TRACE_SPAN_VAR(span, "compress/greedy-pick");
  span.Arg("k", static_cast<uint64_t>(k))
      .Arg("algorithm", AlgorithmName(options.algorithm))
      .Arg("threads", options.num_threads);
  obs::Journal& journal = obs::Journal::Global();
  if (journal.enabled()) {
    journal.CompressBegin(state.size(), k, AlgorithmName(options.algorithm),
                          static_cast<uint64_t>(options.num_threads));
  }

  SelectionResult result;
  switch (options.algorithm) {
    case SelectionAlgorithm::kAllPairs: {
      if (options.num_threads > 1) {
        ThreadPool pool(static_cast<size_t>(options.num_threads));
        result = AllPairsGreedySelect(state, k, options.update, budget, &pool);
      } else {
        result = AllPairsGreedySelect(state, k, options.update, budget);
      }
      break;
    }
    case SelectionAlgorithm::kSummaryFeatures:
      result = SummaryGreedySelect(state, k, options.update, budget);
      break;
  }
  NoteStopReason(result.stop_reason);
  if (journal.enabled()) {
    double benefit_sum = 0.0;
    for (const double b : result.selection_benefits) benefit_sum += b;
    journal.CompressEnd(result.selected.size(),
                        obs::SelectionOrderHash(result.selected.data(),
                                                result.selected.size()),
                        benefit_sum, StopReasonToString(result.stop_reason));
  }
  return result;
}

}  // namespace

SelectionResult Isum::Select(size_t k) const {
  const TimeBudget budget = EffectiveBudget(options_.budget);
  CompressionState state = [this] {
    // Featurization (and utility estimation) happens inside the
    // CompressionState constructor; give it its own phase span.
    ISUM_TRACE_SPAN("compress/feature-extraction");
    return MakeState();
  }();
  return RunSelection(state, k, options_, budget);
}

workload::CompressedWorkload Isum::Compress(size_t k) const {
  ISUM_TRACE_SPAN("compress/total");
  const CompressMetrics& metrics = CompressMetrics::Get();
  metrics.runs->Add(1);
  metrics.input_queries->Add(workload_->size());

  // One state serves both selection and weighing: weighing needs the
  // original (pre-update) signals, which the state retains, so the second
  // featurization pass the old Select+Weigh split paid is gone.
  const TimeBudget budget = EffectiveBudget(options_.budget);
  CompressionState state = [this] {
    ISUM_TRACE_SPAN("compress/feature-extraction");
    return MakeState();
  }();
  const SelectionResult selection =
      RunSelection(state, k, options_, budget);
  std::vector<double> weights;
  {
    ISUM_TRACE_SPAN("compress/weighing");
    weights = WeighSelectedQueries(*workload_, state, selection,
                                   options_.weighing);
  }
  workload::CompressedWorkload out;
  out.stop_reason = selection.stop_reason;
  out.entries.reserve(selection.selected.size());
  for (size_t i = 0; i < selection.selected.size(); ++i) {
    out.entries.push_back({selection.selected[i], weights[i],
                           selection.selection_benefits[i]});
  }
  metrics.selected_queries->Add(out.entries.size());
  return out;
}

}  // namespace isum::core
