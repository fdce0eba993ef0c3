#include "core/hybrid_server.hpp"

#include <utility>

namespace pushpull::core {

HybridServer::HybridServer(const catalog::Catalog& cat,
                           const workload::ClientPopulation& pop,
                           HybridConfig config, LiveExtensions live)
    : core_(cat, pop, std::move(config), std::move(live)),
      num_classes_(pop.num_classes()) {}

SimResult HybridServer::run(const workload::Trace& trace) {
  // Observability: created fresh per run, torn down to nothing when
  // disabled.
  const HybridConfig& config = core_.config();
  config.obs.validate();
  if (config.obs.enabled) {
    obs_ = std::make_unique<obs::RunObserver>(config.obs, num_classes_);
  } else {
    obs_.reset();
  }
  core_.begin(trace.size(), trace.span(), obs_.get(), nullptr,
              /*track_queue_depth=*/false);
  // The trace streams through the kernel; its arrival ids are reserved
  // here, after the core's timers and before the first serving decision.
  core_.sim().attach_arrivals(
      trace.size(), [&trace](std::size_t i) { return trace[i].arrival; },
      [this, &trace](std::size_t i) { core_.on_arrival(trace[i]); });
  core_.start();
  core_.run();
  core_.finish();
  return core_.result();
}

}  // namespace pushpull::core
