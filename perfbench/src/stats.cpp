#include "stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) throw std::invalid_argument("percentile of an empty sample");
  if (!(p >= 0.0 && p <= 100.0)) throw std::invalid_argument("percentile outside [0, 100]");
  std::sort(xs.begin(), xs.end());
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double median(const std::vector<double>& xs) { return percentile(xs, 50.0); }

std::size_t samples_needed(double p) {
  if (p <= 50.0) return 1;
  return static_cast<std::size_t>(std::ceil(10.0 * 100.0 / (100.0 - p) - 1e-9));
}

bool percentile_supported(std::size_t n, double p) { return n >= samples_needed(p); }

double geomean(const std::vector<double>& xs) {
  if (xs.empty()) throw std::invalid_argument("geomean of an empty sample");
  double log_sum = 0.0;
  for (double x : xs) {
    if (!(x > 0.0)) throw std::invalid_argument("geomean of a non-positive value");
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

}  // namespace perfbench
