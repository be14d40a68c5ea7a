#include "core/compression_state.h"

#include "obs/journal.h"

namespace isum::core {

CompressionState::CompressionState(const workload::Workload& workload,
                                   const FeaturizationOptions& feat_options,
                                   UtilityMode utility_mode) {
  Featurizer featurizer(workload.env().catalog, workload.env().stats, &space_);
  features_.reserve(workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    features_.push_back(
        featurizer.Featurize(workload.query(i).bound, feat_options));
  }
  original_features_ = features_;
  utilities_ = ComputeUtilities(workload, utility_mode);
  original_utilities_ = utilities_;
  selected_.assign(workload.size(), false);
}

void CompressionState::SelectAndUpdate(size_t s, UpdateStrategy strategy) {
  selected_[s] = true;
  if (strategy == UpdateStrategy::kNone) return;
  // Snapshot the selected query's features: updates below must all observe
  // the same q_s. The dense scatter doubles as the snapshot and makes every
  // similarity below an O(nnz(q_j)) gather instead of a sorted merge.
  const SparseVector qs = features_[s];
  update_scratch_.Reserve(space_.size());
  update_scratch_.Scatter(qs);
  for (size_t j = 0; j < features_.size(); ++j) {
    if (selected_[j]) continue;
    const double sim = WeightedJaccardVsDense(update_scratch_, features_[j]);
    // Utility discount: U(q_j | q_s) = U(q_j) - U(q_j) * S(q_s, q_j).
    utilities_[j] -= utilities_[j] * sim;
    switch (strategy) {
      case UpdateStrategy::kUtilityOnly:
        break;
      case UpdateStrategy::kUtilityAndWeightSubtract:
        features_[j].SubtractFromAllClamped(sim);
        break;
      case UpdateStrategy::kUtilityAndFeatureZero:
        features_[j].ZeroWhere(qs);
        break;
      case UpdateStrategy::kNone:
        break;
    }
  }
}

void CompressionState::ResetUnselectedFeatures() {
  if (obs::Journal::Global().enabled()) {
    size_t selected_so_far = 0;
    for (const bool s : selected_) selected_so_far += s ? 1 : 0;
    obs::Journal::Global().FeatureReset(selected_so_far);
  }
  for (size_t i = 0; i < features_.size(); ++i) {
    if (!selected_[i]) features_[i] = original_features_[i];
  }
}

std::vector<size_t> CompressionState::EligibleQueries() const {
  std::vector<size_t> out;
  for (size_t i = 0; i < features_.size(); ++i) {
    if (!selected_[i] && !features_[i].AllZero()) out.push_back(i);
  }
  return out;
}

}  // namespace isum::core
