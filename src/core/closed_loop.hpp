#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "catalog/catalog.hpp"
#include "core/server_core.hpp"
#include "des/simulator.hpp"
#include "metrics/class_stats.hpp"
#include "rng/xoshiro256ss.hpp"
#include "workload/population.hpp"

namespace pushpull::core {

/// Configuration of a closed-loop run.
struct ClosedLoopConfig {
  /// The paper's C: number of clients cycling think → request → wait.
  std::size_t num_clients = 50;
  /// Rate of each client's exponential think time (mean 1/rate between a
  /// delivery and the client's next request).
  double think_rate = 0.05;
  std::size_t cutoff = 0;
  double alpha = 0.5;
  /// Virtual run length and the fraction of it discarded as warm-up.
  double horizon = 20000.0;
  double warmup_fraction = 0.1;
  std::uint64_t seed = 1;
};

/// Outcome of a closed-loop run.
struct ClosedLoopResult {
  std::vector<metrics::ClassStats> per_class;
  des::SimTime end_time = 0.0;
  std::uint64_t push_transmissions = 0;
  std::uint64_t pull_transmissions = 0;
  /// Deliveries per broadcast unit over the measured window.
  double throughput = 0.0;

  [[nodiscard]] metrics::ClassStats overall() const {
    metrics::ClassStats total;
    for (const auto& s : per_class) total.merge_counters(s);
    return total;
  }
  [[nodiscard]] double mean_wait(workload::ClassId cls) const {
    return per_class[cls].wait.mean();
  }
};

/// Closed-loop hybrid system: a *finite* population of C clients, each
/// alternating between thinking and waiting for one outstanding request —
/// the population model the paper's §4.1 analysis assumes ("let C ...
/// represent the maximum number of clients") but its open-loop simulation
/// never exercises. Closed loops self-limit: a slow server suppresses the
/// offered load instead of growing an unbounded queue, so throughput
/// saturates at the channel capacity as C grows and delay rises smoothly
/// rather than diverging.
///
/// Clients are assigned classes by the population's shares (round-robin by
/// cumulative share, deterministic) and keep them for the whole run.
///
/// A driver of core::ServerCore: it owns the clients (think and item
/// streams, classes, which client issued which request) and takes the
/// core's delivery hook to start the delivered client's next think phase.
/// The core never settles the run; the kernel simply stops at the horizon.
class ClosedLoopServer final : private DecisionSink {
 public:
  ClosedLoopServer(const catalog::Catalog& cat,
                   const workload::ClientPopulation& pop,
                   ClosedLoopConfig config);

  [[nodiscard]] ClosedLoopResult run();

 private:
  void on_delivered(const workload::Request& request) override;
  void think_then_request(std::size_t client);
  void issue_request(std::size_t client);

  const catalog::Catalog* catalog_;
  ClosedLoopConfig config_;
  ServerCore core_;
  rng::Xoshiro256ss think_eng_;
  rng::Xoshiro256ss item_eng_;

  std::vector<workload::ClassId> client_class_;
  // owners_[request id] = issuing client; ids are dense per run.
  std::vector<std::size_t> owners_;
};

}  // namespace pushpull::core
