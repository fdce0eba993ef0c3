#include "metrics/p2_quantile.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace pushpull::metrics {

P2Quantile::P2Quantile(double q) : q_(q) {
  if (!(q > 0.0 && q < 1.0)) {
    throw std::invalid_argument("P2Quantile: q must be in (0, 1)");
  }
  positions_ = {1, 2, 3, 4, 5};
  desired_ = {1, 1 + 2 * q, 1 + 4 * q, 3 + 2 * q, 5};
  increments_ = {0, q / 2, q, (1 + q) / 2, 1};
}

double P2Quantile::value() const {
  if (count_ == 0) return 0.0;
  if (count_ < 5) {
    // Exact quantile of the sorted prefix (nearest-rank).
    std::array<double, 5> sorted = heights_;
    std::sort(sorted.begin(), sorted.begin() + static_cast<long>(count_));
    const auto rank = static_cast<std::size_t>(
        std::ceil(q_ * static_cast<double>(count_)));
    return sorted[std::min(count_ - 1, static_cast<std::uint64_t>(
                                           rank > 0 ? rank - 1 : 0))];
  }
  return heights_[2];
}

}  // namespace pushpull::metrics
