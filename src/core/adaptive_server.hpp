#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "catalog/catalog.hpp"
#include "core/server_core.hpp"
#include "des/simulator.hpp"
#include "metrics/class_stats.hpp"
#include "workload/population.hpp"
#include "workload/popularity_estimator.hpp"
#include "workload/trace.hpp"

namespace pushpull::core {

/// Configuration of the adaptive (self-tuning) hybrid server.
struct AdaptiveConfig {
  /// Push-set size before the first re-optimization.
  std::size_t initial_cutoff = 0;

  /// Importance-factor weight (see HybridConfig::alpha).
  double alpha = 0.5;

  /// Virtual time between cutoff re-optimizations (the paper's "periodically
  /// the algorithm is executed for different cutoff-points").
  double reoptimize_interval = 500.0;

  /// Half-life of the popularity estimator's exponential forgetting.
  double estimator_half_life = 300.0;

  /// Step of the analytic cutoff scan at each re-optimization.
  std::size_t scan_step = 5;
};

/// Outcome of an adaptive run: the usual per-class statistics plus the
/// trajectory of the cutoff over time.
struct AdaptiveResult {
  std::vector<metrics::ClassStats> per_class;
  des::SimTime end_time = 0.0;
  std::uint64_t push_transmissions = 0;
  std::uint64_t pull_transmissions = 0;
  std::uint64_t reoptimizations = 0;
  /// (time, push-set size) after every re-optimization, starting with the
  /// initial configuration at time 0.
  std::vector<std::pair<des::SimTime, std::size_t>> cutoff_history;

  [[nodiscard]] metrics::ClassStats overall() const {
    metrics::ClassStats total;
    for (const auto& s : per_class) total.merge_counters(s);
    return total;
  }
  [[nodiscard]] double mean_wait(workload::ClassId cls) const {
    return per_class[cls].wait.mean();
  }
  [[nodiscard]] double total_prioritized_cost(
      const workload::ClientPopulation& pop) const {
    double total = 0.0;
    for (workload::ClassId c = 0; c < per_class.size(); ++c) {
      total += pop.priority(c) * per_class[c].wait.mean();
    }
    return total;
  }
};

/// The paper's dynamic variant of the hybrid scheduler: the push set is not
/// a fixed rank prefix but the top-K items of an *online popularity
/// estimate*, with K re-optimized periodically against the analytical
/// access-time model fed with the estimated popularity and the measured
/// arrival rate.
///
/// A driver of core::ServerCore: it feeds the estimator before each
/// arrival reaches the core and, on its timer, hands the core the
/// estimated ranking and the best cutoff (ServerCore::repartition), which
/// migrates pending requests across the moved boundary. Every scheduling
/// rule is the core's; until the first re-optimization the server is
/// HybridServer at `initial_cutoff`, bit for bit.
class AdaptiveHybridServer {
 public:
  AdaptiveHybridServer(const catalog::Catalog& cat,
                       const workload::ClientPopulation& pop,
                       AdaptiveConfig config);

  [[nodiscard]] AdaptiveResult run(const workload::Trace& trace);

  [[nodiscard]] const AdaptiveConfig& config() const noexcept {
    return config_;
  }

 private:
  void reoptimize();
  void schedule_reoptimization();

  const catalog::Catalog* catalog_;
  const workload::ClientPopulation* population_;
  AdaptiveConfig config_;
  ServerCore core_;
  workload::PopularityEstimator estimator_;

  // Run-scoped state.
  std::uint64_t reoptimizations_ = 0;
  std::vector<std::pair<des::SimTime, std::size_t>> cutoff_history_;
};

}  // namespace pushpull::core
