// Summary statistics used by the benchmark's reports.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// p-th percentile (p in [0, 100]) by linear interpolation between the
/// closest ranks (the "linear" method of numpy and Python's statistics
/// module with method='inclusive'). Throws std::invalid_argument on an
/// empty sample or p outside [0, 100].
double percentile(std::vector<double> xs, double p);

double median(const std::vector<double>& xs);

/// Number of samples needed before percentile p is reported: at least ten
/// samples must lie beyond it, so n * (100 - p) / 100 >= 10 (p90 needs
/// 100 samples, p99 needs 1000). The median needs one sample.
std::size_t samples_needed(double p);

/// True when `n` samples support reporting percentile p.
bool percentile_supported(std::size_t n, double p);

/// Geometric mean of positive values. Throws on an empty sample or a
/// non-positive value.
double geomean(const std::vector<double>& xs);

}  // namespace perfbench
