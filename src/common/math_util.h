#ifndef ISUM_COMMON_MATH_UTIL_H_
#define ISUM_COMMON_MATH_UTIL_H_

#include <cstddef>
#include <limits>
#include <vector>

namespace isum {

/// Pearson correlation coefficient of two equal-length series.
/// Returns 0 if either series is constant or sizes mismatch/empty.
double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y);

/// Spearman rank correlation (Pearson over fractional ranks, average ties).
double SpearmanCorrelation(const std::vector<double>& x,
                           const std::vector<double>& y);

/// Arithmetic mean; 0 for empty input.
double Mean(const std::vector<double>& x);

/// Population standard deviation; 0 for inputs of size < 2.
double StdDev(const std::vector<double>& x);

/// Linear-interpolated percentile, p in [0, 100]. Input need not be sorted.
/// Returns 0 for empty input.
double Percentile(std::vector<double> x, double p);

/// Min-max normalizes values in place to [0, 1] as in §4.2 of the paper:
/// v' = v / (max - min). If all values are equal, they are set to 1.
void MinMaxNormalize(std::vector<double>& values);

/// Fractional ranks (1-based, ties averaged) of the values.
std::vector<double> FractionalRanks(const std::vector<double>& x);

/// Clamps v to [lo, hi].
double Clamp(double v, double lo, double hi);

/// `v` truncated toward zero into `Int`, saturating at Int's limits (NaN
/// gives the lowest value). A plain static_cast of an out-of-range double
/// is undefined, so numbers read from files go through this instead.
template <typename Int>
Int SaturatingCast(double v) {
  constexpr Int kLowest = std::numeric_limits<Int>::lowest();
  constexpr Int kMax = std::numeric_limits<Int>::max();
  if (!(v > static_cast<double>(kLowest))) return kLowest;
  if (v >= static_cast<double>(kMax)) return kMax;
  return static_cast<Int>(v);
}

}  // namespace isum

#endif  // ISUM_COMMON_MATH_UTIL_H_
