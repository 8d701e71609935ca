#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace e2e {

double percentile(std::vector<double> samples, double q,
                  std::size_t minBelow) {
  if (!(q >= 0 && q < 1)) {
    throw std::invalid_argument("percentile: q must be in [0, 1)");
  }
  if (samples.empty()) {
    throw std::invalid_argument("percentile: no samples");
  }
  const auto rank = static_cast<std::size_t>(
      std::floor(q * static_cast<double>(samples.size())));
  if (rank < minBelow) {
    throw std::invalid_argument(
        "percentile: " + std::to_string(samples.size()) +
        " samples leave " + std::to_string(rank) + " below p" +
        std::to_string(static_cast<int>(q * 100)) + ", need " +
        std::to_string(minBelow));
  }
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank),
                   samples.end());
  return samples[rank];
}

std::size_t minSamplesFor(double q, std::size_t minBelow) {
  std::size_t n = 1;
  while (static_cast<std::size_t>(std::floor(q * static_cast<double>(n))) <
         minBelow) {
    ++n;
  }
  return n;
}

}  // namespace e2e
