#include "core/adaptive_server.hpp"

#include <stdexcept>

#include "core/cutoff_optimizer.hpp"
#include "queueing/access_time.hpp"

namespace pushpull::core {

namespace {

HybridConfig core_config(const AdaptiveConfig& config) {
  HybridConfig core;
  core.cutoff = config.initial_cutoff;
  core.alpha = config.alpha;
  core.mean_bandwidth_demand = 0.0;  // unconstrained channel: no draws
  return core;
}

}  // namespace

AdaptiveHybridServer::AdaptiveHybridServer(
    const catalog::Catalog& cat, const workload::ClientPopulation& pop,
    AdaptiveConfig config)
    : catalog_(&cat),
      population_(&pop),
      config_(std::move(config)),
      core_(cat, pop, core_config(config_)),
      estimator_(cat.size(), config_.estimator_half_life) {
  if (config_.reoptimize_interval <= 0.0) {
    throw std::invalid_argument(
        "AdaptiveHybridServer: re-optimization interval must be > 0");
  }
  if (config_.scan_step == 0) {
    throw std::invalid_argument("AdaptiveHybridServer: scan step must be > 0");
  }
}

void AdaptiveHybridServer::reoptimize() {
  if (core_.done()) return;  // nothing left to schedule for
  // Rescheduled before the re-partition, whose wake-up may schedule a
  // transmission end at the same instant.
  schedule_reoptimization();
  const des::SimTime now = core_.sim().now();
  if (core_.arrivals() == 0 || now <= 0.0) return;

  // Assemble the estimated catalog: estimated popularity in rank order with
  // the true item lengths, plus the measured aggregate arrival rate.
  const std::vector<catalog::ItemId> ranking = estimator_.ranking();
  const std::vector<double> probs = estimator_.probabilities();
  std::vector<double> lengths(ranking.size());
  std::vector<double> weights(ranking.size());
  for (std::size_t r = 0; r < ranking.size(); ++r) {
    lengths[r] = catalog_->length(ranking[r]);
    weights[r] = probs[ranking[r]];
  }
  const double measured_rate = static_cast<double>(core_.arrivals()) / now;

  const catalog::Catalog estimated(std::move(lengths), std::move(weights));
  const queueing::HybridAccessModel model(estimated, *population_,
                                          measured_rate);
  const CutoffScan scan = scan_cutoffs(
      0, estimated.size(), config_.scan_step,
      [&](std::size_t k) { return model.prioritized_cost(k, config_.alpha); });

  ++reoptimizations_;
  core_.repartition(ranking, scan.best_cutoff);
  cutoff_history_.emplace_back(now, scan.best_cutoff);
}

void AdaptiveHybridServer::schedule_reoptimization() {
  core_.sim().schedule_in(config_.reoptimize_interval,
                          [this]() { reoptimize(); });
}

AdaptiveResult AdaptiveHybridServer::run(const workload::Trace& trace) {
  estimator_ = workload::PopularityEstimator(catalog_->size(),
                                             config_.estimator_half_life);
  reoptimizations_ = 0;
  // The initial partition is the catalog's own rank order.
  cutoff_history_.assign(1, {0.0, config_.initial_cutoff});

  core_.begin(trace.size(), trace.span(), nullptr, nullptr,
              /*track_queue_depth=*/false);
  core_.sim().attach_arrivals(
      trace.size(), [&trace](std::size_t i) { return trace[i].arrival; },
      [this, &trace](std::size_t i) {
        estimator_.observe(trace[i].item, trace[i].arrival);
        core_.on_arrival(trace[i]);
      });
  core_.start();
  // After start(), so a re-optimization and a transmission end at the same
  // instant dispatch in the kernel's (time, id) order.
  schedule_reoptimization();
  core_.run();

  SimResult sim = core_.result();
  AdaptiveResult result;
  result.per_class = std::move(sim.per_class);
  result.end_time = sim.end_time;
  result.push_transmissions = sim.push_transmissions;
  result.pull_transmissions = sim.pull_transmissions;
  result.reoptimizations = reoptimizations_;
  result.cutoff_history = cutoff_history_;
  return result;
}

}  // namespace pushpull::core
