#pragma once

// Shared rendering for the engine goldens (tests/golden/engines/): every
// statistic is printed as a C99 hexfloat, so a golden pins each double bit
// for bit and a refactor that changes one rounding shows as a diff.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "metrics/class_stats.hpp"
#include "metrics/p2_quantile.hpp"

namespace pushpull::testing_util {

[[nodiscard]] inline std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

[[nodiscard]] inline std::string hex_quantile(const metrics::P2Quantile& q) {
  return q.count() > 0 ? hex(q.value()) : std::string("-");
}

/// One line per class: every counter, then the wait's mean and p50/p95/p99
/// and the inter-service gap's mean and p99.
[[nodiscard]] inline std::string render_per_class(
    const std::vector<metrics::ClassStats>& per_class) {
  std::ostringstream out;
  for (std::size_t c = 0; c < per_class.size(); ++c) {
    const metrics::ClassStats& s = per_class[c];
    out << "  class " << c << " arrived=" << s.arrived
        << " served=" << s.served << " push=" << s.served_push
        << " pull=" << s.served_pull << " blocked=" << s.blocked
        << " abandoned=" << s.abandoned << " corrupted=" << s.corrupted
        << " retries=" << s.retries << " shed=" << s.shed
        << " lost=" << s.lost << " rejected=" << s.rejected
        << " stormed=" << s.stormed << " wait_n=" << s.wait.count()
        << " wait_mean=" << hex(s.wait.mean())
        << " p50=" << hex_quantile(s.wait_p50)
        << " p95=" << hex_quantile(s.wait_p95)
        << " p99=" << hex_quantile(s.wait_p99) << " gap_n=" << s.gap.count()
        << " gap_mean=" << hex(s.gap.mean())
        << " gap_p99=" << hex_quantile(s.gap_p99) << "\n";
  }
  return out.str();
}

/// Byte-compares `actual` against tests/golden/engines/<name>.
inline void expect_matches_engine_golden(const std::string& actual,
                                         const std::string& name) {
  std::ifstream in(std::string(PUSHPULL_GOLDEN_DIR) + "/engines/" + name,
                   std::ios::binary);
  ASSERT_TRUE(in.is_open()) << "missing tests/golden/engines/" << name;
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(actual, golden.str())
      << "engine output drifted from tests/golden/engines/" << name;
}

}  // namespace pushpull::testing_util
