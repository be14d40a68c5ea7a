#ifndef ISUM_CORE_COMPRESSION_STATE_H_
#define ISUM_CORE_COMPRESSION_STATE_H_

#include <vector>

#include "core/features.h"
#include "core/utility.h"
#include "core/weighting.h"
#include "workload/workload.h"

namespace isum::core {

/// Strategies for updating unselected queries after each greedy selection
/// (§4.3 and Figure 13 of the paper).
enum class UpdateStrategy {
  /// No update (benefit of a set ignores interactions) — worst in Fig 13.
  kNone,
  /// Discount utilities only: U(q_j | q_i) = U(q_j)(1 - S(q_i, q_j)).
  kUtilityOnly,
  /// Utility update + subtract S(q_i, q_j) from q_j's feature weights.
  kUtilityAndWeightSubtract,
  /// Utility update + zero the features q_i covers (the paper's default).
  kUtilityAndFeatureZero,
};

/// Mutable per-query signals shared by the all-pairs and summary-features
/// greedy algorithms: current and original features/utilities, selection
/// flags, and the update/reset machinery of Algorithm 2.
class CompressionState {
 public:
  /// Featurizes every query in `workload` and computes utilities.
  CompressionState(const workload::Workload& workload,
                   const FeaturizationOptions& feat_options,
                   UtilityMode utility_mode);

  size_t size() const { return features_.size(); }
  const SparseVector& features(size_t i) const { return features_[i]; }
  const SparseVector& original_features(size_t i) const {
    return original_features_[i];
  }
  double utility(size_t i) const { return utilities_[i]; }
  double original_utility(size_t i) const { return original_utilities_[i]; }
  bool selected(size_t i) const { return selected_[i]; }
  FeatureSpace& feature_space() { return space_; }
  const FeatureSpace& feature_space() const { return space_; }

  /// Similarity of two queries' *current* features.
  double Similarity(size_t i, size_t j) const {
    return WeightedJaccard(features_[i], features_[j]);
  }

  /// Marks `s` selected and applies `strategy` to every unselected query,
  /// using s's features at selection time (Algorithm 2, lines 9–11).
  void SelectAndUpdate(size_t s, UpdateStrategy strategy);

  /// Resets unselected queries' features to their original weights
  /// (Algorithm 2, line 12). Utilities stay discounted.
  void ResetUnselectedFeatures();

  /// Queries eligible for selection: unselected with a non-zero feature.
  std::vector<size_t> EligibleQueries() const;

 private:
  FeatureSpace space_;
  std::vector<SparseVector> features_;
  std::vector<SparseVector> original_features_;
  std::vector<double> utilities_;
  std::vector<double> original_utilities_;
  std::vector<bool> selected_;
  // One-vs-many probe buffer for SelectAndUpdate, reused across rounds.
  DenseScratch update_scratch_;
};

}  // namespace isum::core

#endif  // ISUM_CORE_COMPRESSION_STATE_H_
