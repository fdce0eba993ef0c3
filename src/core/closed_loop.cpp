#include "core/closed_loop.hpp"

#include <limits>
#include <stdexcept>

#include "rng/exponential.hpp"
#include "rng/stream.hpp"

namespace pushpull::core {

namespace {

HybridConfig core_config(const ClosedLoopConfig& config) {
  HybridConfig core;
  core.cutoff = config.cutoff;
  core.alpha = config.alpha;
  core.mean_bandwidth_demand = 0.0;  // unconstrained channel: no draws
  core.warmup_fraction = config.warmup_fraction;
  core.seed = config.seed;
  return core;
}

}  // namespace

ClosedLoopServer::ClosedLoopServer(const catalog::Catalog& cat,
                                   const workload::ClientPopulation& pop,
                                   ClosedLoopConfig config)
    : catalog_(&cat),
      config_(std::move(config)),
      core_(cat, pop, core_config(config_)),
      think_eng_(rng::StreamFactory(config_.seed).stream("think")),
      item_eng_(rng::StreamFactory(config_.seed).stream("items")) {
  if (config_.num_clients == 0) {
    throw std::invalid_argument("ClosedLoopServer: need at least one client");
  }
  if (config_.think_rate <= 0.0) {
    throw std::invalid_argument("ClosedLoopServer: think rate must be > 0");
  }
  if (config_.horizon <= 0.0) {
    throw std::invalid_argument("ClosedLoopServer: horizon must be > 0");
  }

  // Deterministic class assignment by cumulative population share.
  client_class_.resize(config_.num_clients);
  double cumulative = 0.0;
  workload::ClassId cls = 0;
  for (std::size_t c = 0; c < config_.num_clients; ++c) {
    const double position = (static_cast<double>(c) + 0.5) /
                            static_cast<double>(config_.num_clients);
    while (cls + 1 < pop.num_classes() &&
           position >= cumulative + pop.share(cls)) {
      cumulative += pop.share(cls);
      ++cls;
    }
    client_class_[c] = cls;
  }
}

void ClosedLoopServer::think_then_request(std::size_t client) {
  const double think = rng::exponential(think_eng_, config_.think_rate);
  core_.sim().schedule_in(think, [this, client]() { issue_request(client); });
}

void ClosedLoopServer::issue_request(std::size_t client) {
  workload::Request request;
  // The request id doubles as the key back to its client: ids are dense,
  // so a vector indexed by id works as the owner map.
  request.id = owners_.size();
  request.item = catalog_->sample(item_eng_);
  request.cls = client_class_[client];
  request.arrival = core_.sim().now();
  owners_.push_back(client);
  core_.on_arrival(request);
}

void ClosedLoopServer::on_delivered(const workload::Request& request) {
  think_then_request(owners_[request.id]);
}

ClosedLoopResult ClosedLoopServer::run() {
  // Re-seed the per-run engines so a reused server replays identically.
  think_eng_ = rng::StreamFactory(config_.seed).stream("think");
  item_eng_ = rng::StreamFactory(config_.seed).stream("items");
  owners_.clear();
  // A closed loop never settles: the run ends at the horizon, and the
  // warm-up cut is warmup_fraction of it.
  core_.begin(std::numeric_limits<std::uint64_t>::max(), config_.horizon,
              nullptr, this, /*track_queue_depth=*/false);
  // Every client starts with an initial think phase.
  for (std::size_t c = 0; c < config_.num_clients; ++c) {
    think_then_request(c);
  }
  core_.start();
  core_.sim().run_until(config_.horizon);

  SimResult sim = core_.result();
  ClosedLoopResult result;
  result.per_class = std::move(sim.per_class);
  result.end_time = core_.sim().now();
  result.push_transmissions = sim.push_transmissions;
  result.pull_transmissions = sim.pull_transmissions;
  const double window = config_.horizon * (1.0 - config_.warmup_fraction);
  result.throughput =
      window > 0.0 ? static_cast<double>(result.overall().served) / window
                   : 0.0;
  return result;
}

}  // namespace pushpull::core
