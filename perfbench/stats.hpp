// Order statistics for benchmark samples. Percentiles interpolate linearly
// between the two closest ranks (the "linear" method of numpy and of
// Python's statistics.quantiles(method="inclusive")).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace nemobench {

/// The q-quantile (q in [0, 1]) of `v`; NaN when `v` is empty.
inline double percentile(const std::vector<double>& samples, double q) {
  if (samples.empty()) return std::nan("");
  std::vector<double> v(samples);
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  auto lo = static_cast<std::size_t>(std::floor(pos));
  std::size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(const std::vector<double>& v) {
  return percentile(v, 0.5);
}

/// What every timing is reported as: the median, the p99 beside it
/// (diagnostic only), and the sample count both rest on.
struct Summary {
  double median = std::nan("");
  double p99 = std::nan("");
  std::size_t n = 0;
};

inline Summary summarize(const std::vector<double>& v) {
  return {median(v), percentile(v, 0.99), v.size()};
}

}  // namespace nemobench
