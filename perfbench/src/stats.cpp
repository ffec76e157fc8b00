#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace perfbench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::invalid_argument("quantile of no samples");
  if (!(q >= 0.0 && q <= 1.0)) {
    throw std::invalid_argument("quantile q outside [0, 1]");
  }
  std::sort(samples.begin(), samples.end());
  const double position = q * static_cast<double>(samples.size() - 1);
  const auto lower = static_cast<std::size_t>(std::floor(position));
  const std::size_t upper = std::min(lower + 1, samples.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return samples[lower] + fraction * (samples[upper] - samples[lower]);
}

double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

std::size_t samples_beyond(std::size_t n, double q) {
  const auto at_or_below =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return at_or_below >= n ? 0 : n - at_or_below;
}

double tail_quantile(std::vector<double> samples, double q,
                     std::size_t min_beyond) {
  const std::size_t beyond = samples_beyond(samples.size(), q);
  if (beyond < min_beyond) {
    throw std::invalid_argument(
        "percentile " + std::to_string(q * 100) + " of " +
        std::to_string(samples.size()) + " samples has only " +
        std::to_string(beyond) + " beyond it (need " +
        std::to_string(min_beyond) + ")");
  }
  return quantile(std::move(samples), q);
}

}  // namespace perfbench
