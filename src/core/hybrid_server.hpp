#pragma once

#include <memory>

#include "catalog/catalog.hpp"
#include "core/config.hpp"
#include "core/result.hpp"
#include "core/server_core.hpp"
#include "obs/observer.hpp"
#include "workload/population.hpp"
#include "workload/trace.hpp"

namespace pushpull::core {

/// The paper's hybrid scheduling server simulated with discrete events: the
/// DES driver of core::ServerCore (which documents the model and its
/// layers). run() streams a trace into the core's kernel and runs it to
/// the end.
///
/// The server is deterministic given (catalog, population, config, trace);
/// with every optional layer disabled the output is bit-identical to builds
/// that predate the layers. The LiveExtensions (deadline scales and spike,
/// hedging, drain) are what `pushpull replay` passes to re-run a recorded
/// live run through this driver bit for bit.
class HybridServer {
 public:
  HybridServer(const catalog::Catalog& cat,
               const workload::ClientPopulation& pop, HybridConfig config,
               LiveExtensions live = {});

  /// Simulates the full trace and runs until every request is delivered or
  /// blocked, then reports per-class statistics.
  [[nodiscard]] SimResult run(const workload::Trace& trace);

  [[nodiscard]] const HybridConfig& config() const noexcept {
    return core_.config();
  }

  /// Observability report of the last run(): trace window, counters and
  /// histograms. Empty (enabled=false) unless config().obs.enabled. Valid
  /// until the next run() resets the observer.
  [[nodiscard]] obs::ObsReport obs_report() const {
    return obs_ ? obs_->report() : obs::ObsReport{};
  }

 private:
  ServerCore core_;
  std::size_t num_classes_;
  // Created fresh per run iff config().obs.enabled.
  std::unique_ptr<obs::RunObserver> obs_;
};

}  // namespace pushpull::core
