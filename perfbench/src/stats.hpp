#pragma once

#include <cstddef>
#include <vector>

// Order statistics for the benchmark's reported timings. Every reported
// timing is a median or a percentile of many samples taken inside one run;
// a percentile is reported only when enough samples lie beyond it to make
// it more than the single slowest sample.

namespace perfbench {

/// Samples a percentile must have beyond it before it is reported.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Linearly interpolated quantile (q in [0, 1]) of `samples`, the same rule
/// as numpy's default and Python's statistics.quantiles(method="inclusive").
/// Throws std::invalid_argument on an empty sample or q outside [0, 1].
double quantile(std::vector<double> samples, double q);

/// Median of `samples` (quantile 0.5).
double median(std::vector<double> samples);

/// Samples ranked strictly above the q-quantile: n - ceil(q * n).
std::size_t samples_beyond(std::size_t n, double q);

/// quantile() that refuses a tail it cannot support: throws
/// std::invalid_argument when fewer than `min_beyond` samples lie beyond q.
double tail_quantile(std::vector<double> samples, double q,
                     std::size_t min_beyond = kMinSamplesBeyond);

}  // namespace perfbench
