// Streaming statistics (Welford) and small aggregation helpers used by the
// benchmark harnesses to report mean ± stddev over random instances.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "util/error.h"

namespace hios {

/// Single-pass mean/variance accumulator (Welford's algorithm).
class RunningStats {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0; }
  double stddev() const { return std::sqrt(variance()); }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Percentile of an ascending sample (linear interpolation); q in [0,1].
/// O(1): callers that keep their sample sorted skip percentile()'s copy.
inline double percentile_sorted(std::span<const double> sorted, double q) {
  HIOS_CHECK(!sorted.empty(), "percentile of empty sample");
  HIOS_CHECK(q >= 0.0 && q <= 1.0, "percentile q out of range: " << q);
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

/// Percentile of a sample (linear interpolation); q in [0,1].
inline double percentile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  return percentile_sorted(xs, q);
}

/// Tail-latency summary of a latency sample (serving metrics, benches).
struct QuantileSummary {
  std::size_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

/// Summarises a sample; zeroes when empty (serving metrics may be empty).
inline QuantileSummary summarize_quantiles(const std::vector<double>& xs) {
  QuantileSummary q;
  if (xs.empty()) return q;
  q.count = xs.size();
  double sum = 0.0;
  for (double x : xs) sum += x;
  q.mean = sum / static_cast<double>(xs.size());
  q.p50 = percentile(xs, 0.50);
  q.p95 = percentile(xs, 0.95);
  q.p99 = percentile(xs, 0.99);
  q.max = *std::max_element(xs.begin(), xs.end());
  return q;
}

/// Geometric mean; all inputs must be positive.
inline double geomean(const std::vector<double>& xs) {
  HIOS_CHECK(!xs.empty(), "geomean of empty sample");
  double log_sum = 0.0;
  for (double x : xs) {
    HIOS_CHECK(x > 0.0, "geomean requires positive values, got " << x);
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

}  // namespace hios
