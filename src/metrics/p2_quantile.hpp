#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>

namespace pushpull::metrics {

/// Streaming quantile estimation with the P² algorithm (Jain & Chlamtac,
/// CACM 1985): tracks one quantile with five markers in O(1) memory and
/// O(1) per observation — no sample storage. Used for per-class delay
/// tails (p95/p99), where storing millions of waits per configuration
/// sweep would be wasteful.
///
/// Accuracy is the algorithm's usual: exact until five observations, then
/// a piecewise-parabolic approximation that converges for smooth
/// distributions (validated against exact quantiles in the tests).
class P2Quantile {
 public:
  /// q in (0, 1), e.g. 0.95 for the 95th percentile.
  explicit P2Quantile(double q);

  /// Folds one observation (defined below: it runs per served request).
  void add(double x);

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double quantile() const noexcept { return q_; }

  /// Current estimate. With fewer than five observations, returns the
  /// exact sample quantile of what has been seen (0 if empty).
  [[nodiscard]] double value() const;

 private:
  double q_;
  std::uint64_t count_ = 0;
  std::array<double, 5> heights_{};    // marker heights (sorted)
  std::array<double, 5> positions_{};  // actual marker positions
  std::array<double, 5> desired_{};    // desired marker positions
  std::array<double, 5> increments_{};
};

inline void P2Quantile::add(double x) {
  if (count_ < 5) {
    heights_[count_++] = x;
    if (count_ == 5) std::sort(heights_.begin(), heights_.end());
    return;
  }

  // Locate the cell containing x and update extreme markers.
  std::size_t cell;
  if (x < heights_[0]) {
    heights_[0] = x;
    cell = 0;
  } else if (x >= heights_[4]) {
    heights_[4] = x;
    cell = 3;
  } else {
    cell = 0;
    while (cell < 3 && x >= heights_[cell + 1]) ++cell;
  }
  ++count_;

  for (std::size_t i = cell + 1; i < 5; ++i) positions_[i] += 1.0;
  for (std::size_t i = 0; i < 5; ++i) desired_[i] += increments_[i];

  // Adjust interior markers toward their desired positions with the
  // piecewise-parabolic (P²) update, falling back to linear when the
  // parabola would break marker ordering.
  for (std::size_t i = 1; i <= 3; ++i) {
    const double delta = desired_[i] - positions_[i];
    const double right_gap = positions_[i + 1] - positions_[i];
    const double left_gap = positions_[i - 1] - positions_[i];
    if ((delta >= 1.0 && right_gap > 1.0) ||
        (delta <= -1.0 && left_gap < -1.0)) {
      const double d = delta >= 1.0 ? 1.0 : -1.0;
      // Parabolic prediction.
      const double hp =
          heights_[i] +
          d / (positions_[i + 1] - positions_[i - 1]) *
              ((positions_[i] - positions_[i - 1] + d) *
                   (heights_[i + 1] - heights_[i]) / right_gap +
               (positions_[i + 1] - positions_[i] - d) *
                   (heights_[i] - heights_[i - 1]) /
                   (positions_[i] - positions_[i - 1]));
      if (heights_[i - 1] < hp && hp < heights_[i + 1]) {
        heights_[i] = hp;
      } else {
        // Linear fallback toward the neighbor in the move direction.
        const std::size_t j = d > 0 ? i + 1 : i - 1;
        heights_[i] += d * (heights_[j] - heights_[i]) /
                       (positions_[j] - positions_[i]);
      }
      positions_[i] += d;
    }
  }
}

}  // namespace pushpull::metrics
