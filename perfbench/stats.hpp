// Order statistics of the benchmark: median and nearest-rank
// percentiles that carry the sample count behind them. Header-only and
// free of the library so stats_test.cpp builds it alone.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// A percentile read off a sample: the value, how many samples it was
/// taken from, and how many lie strictly above its rank. A tail figure
/// is only worth reporting when `beyond` is at least ten.
struct Percentile {
  double p = 0.0;
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

/// Nearest-rank percentile (p in (0, 1]): the smallest sample with at
/// least p * n samples at or below it. Empty input gives value 0 and
/// samples 0.
inline Percentile percentile(std::vector<double> v, double p) {
  Percentile out;
  out.p = p;
  out.samples = v.size();
  if (v.empty()) return out;
  // The epsilon keeps p * n that is integral on paper (0.9 * 150)
  // from rounding up to the next rank.
  const double rank = std::ceil(p * static_cast<double>(v.size()) - 1e-9);
  const std::size_t idx =
      std::min(v.size() - 1,
               static_cast<std::size_t>(std::max(rank, 1.0)) - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  out.value = v[idx];
  out.beyond = v.size() - idx - 1;
  return out;
}

/// Median; the mean of the two middle samples for an even count.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace perfbench
