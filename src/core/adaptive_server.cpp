#include "core/adaptive_server.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/cutoff_optimizer.hpp"
#include "queueing/access_time.hpp"

namespace pushpull::core {

AdaptiveHybridServer::AdaptiveHybridServer(
    const catalog::Catalog& cat, const workload::ClientPopulation& pop,
    AdaptiveConfig config)
    : catalog_(&cat),
      population_(&pop),
      config_(std::move(config)),
      estimator_(cat.size(), config_.estimator_half_life),
      is_push_(cat.size(), false),
      push_waiters_(cat.size()) {
  if (config_.initial_cutoff > cat.size()) {
    throw std::invalid_argument(
        "AdaptiveHybridServer: cutoff beyond catalog size");
  }
  if (config_.reoptimize_interval <= 0.0) {
    throw std::invalid_argument(
        "AdaptiveHybridServer: re-optimization interval must be > 0");
  }
  if (config_.scan_step == 0) {
    throw std::invalid_argument("AdaptiveHybridServer: scan step must be > 0");
  }
  pull_policy_ = sched::make_pull_policy(config_.pull_policy, config_.alpha);
}

void AdaptiveHybridServer::set_push_set(
    const std::vector<catalog::ItemId>& ranking, std::size_t cutoff) {
  std::fill(is_push_.begin(), is_push_.end(), false);
  push_list_.assign(ranking.begin(),
                    ranking.begin() + static_cast<std::ptrdiff_t>(cutoff));
  for (catalog::ItemId id : push_list_) is_push_[id] = true;
  push_pos_ = 0;

  // Migrate pending work across the new boundary.
  for (catalog::ItemId id : push_list_) {
    // Newly pushed: queued pull requests now just wait for the broadcast.
    if (auto entry = pull_queue_.extract(id)) {
      auto& waiters = push_waiters_[id];
      waiters.insert(waiters.end(), entry->pending.begin(),
                     entry->pending.end());
    }
  }
  for (catalog::ItemId id = 0; id < catalog_->size(); ++id) {
    if (is_push_[id] || push_waiters_[id].empty()) continue;
    // Newly pulled: broadcast waiters become explicit pull requests.
    for (const auto& request : push_waiters_[id]) {
      pull_queue_.add(request, population_->priority(request.cls),
                      catalog_->length(id), catalog_->probability(id));
    }
    push_waiters_[id].clear();
  }
  cutoff_history_.emplace_back(sim_.now(), cutoff);
}

void AdaptiveHybridServer::reoptimize() {
  if (settled_ == to_settle_) return;  // nothing left to schedule for
  schedule_reoptimization();
  if (arrived_ == 0 || sim_.now() <= 0.0) return;

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
  double measured_rate = static_cast<double>(arrived_) / sim_.now();
  if (measured_rate <= 0.0) return;

  const catalog::Catalog estimated(std::move(lengths), std::move(weights));
  const queueing::HybridAccessModel model(estimated, *population_,
                                          measured_rate);
  const CutoffScan scan = scan_cutoffs(
      0, estimated.size(), config_.scan_step,
      [&](std::size_t k) { return model.prioritized_cost(k, config_.alpha); });

  ++reoptimizations_;
  set_push_set(ranking, scan.best_cutoff);
  wake_if_idle();
}

void AdaptiveHybridServer::schedule_reoptimization() {
  sim_.schedule_in(config_.reoptimize_interval, [this]() { reoptimize(); });
}

void AdaptiveHybridServer::settle_one() {
  ++settled_;
  if (settled_ == to_settle_) sim_.request_stop();
}

void AdaptiveHybridServer::deliver(const workload::Request& request,
                                   bool via_push) {
  collector_->record_served(request.cls, sim_.now() - request.arrival,
                            via_push, sim_.now());
  settle_one();
}

void AdaptiveHybridServer::wake_if_idle() {
  if (server_busy_ || settled_ == to_settle_) return;
  if (push_list_.empty() && pull_queue_.empty()) return;
  server_busy_ = true;
  serve_next(/*just_did_push=*/true);
}

void AdaptiveHybridServer::on_arrival(const workload::Request& request) {
  collector_->record_arrival(request.cls);
  ++arrived_;
  estimator_.observe(request.item, request.arrival);
  if (is_push_[request.item]) {
    push_waiters_[request.item].push_back(request);
  } else {
    const des::SimTime now = sim_.now();
    queue_len_area_ += static_cast<double>(pull_queue_.total_requests()) *
                       (now - queue_len_last_t_);
    queue_len_last_t_ = now;
    pull_queue_.add(request, population_->priority(request.cls),
                    catalog_->length(request.item),
                    catalog_->probability(request.item));
  }
  wake_if_idle();
}

void AdaptiveHybridServer::serve_next(bool just_did_push) {
  if (settled_ == to_settle_) {
    server_busy_ = false;
    return;
  }
  if (push_list_.empty()) {
    if (pull_queue_.empty()) {
      server_busy_ = false;
      return;
    }
    start_pull();
    return;
  }
  if (just_did_push && !pull_queue_.empty()) {
    start_pull();
  } else {
    start_push();
  }
}

void AdaptiveHybridServer::start_push() {
  if (push_list_.empty()) {
    throw std::logic_error(
        "AdaptiveHybridServer: start_push() with an empty push list");
  }
  if (push_pos_ >= push_list_.size()) push_pos_ = 0;
  const catalog::ItemId item = push_list_[push_pos_++];
  std::vector<workload::Request> catching = std::move(push_waiters_[item]);
  push_waiters_[item].clear();
  sim_.schedule_in(catalog_->length(item),
                   [this, catching = std::move(catching)]() {
                     ++push_transmissions_;
                     for (const auto& r : catching) deliver(r, true);
                     serve_next(/*just_did_push=*/true);
                   });
}

void AdaptiveHybridServer::start_pull() {
  const des::SimTime now = sim_.now();
  queue_len_area_ += static_cast<double>(pull_queue_.total_requests()) *
                     (now - queue_len_last_t_);
  queue_len_last_t_ = now;
  sched::PullContext ctx;
  ctx.now = now;
  ctx.expected_queue_len = now > 0.0 ? queue_len_area_ / now : 1.0;
  auto entry = pull_queue_.extract_best(*pull_policy_, ctx);
  if (!entry.has_value()) {
    throw std::logic_error(
        "AdaptiveHybridServer: non-empty pull queue yielded no entry");
  }
  sim_.schedule_in(entry->length, [this, entry = std::move(*entry)]() {
    ++pull_transmissions_;
    for (const auto& r : entry.pending) deliver(r, false);
    serve_next(/*just_did_push=*/false);
  });
}

AdaptiveResult AdaptiveHybridServer::run(const workload::Trace& trace) {
  sim_.reset();
  pull_queue_.clear();
  for (auto& waiters : push_waiters_) waiters.clear();
  estimator_ =
      workload::PopularityEstimator(catalog_->size(),
                                    config_.estimator_half_life);
  collector_ =
      std::make_unique<metrics::ClassCollector>(population_->num_classes());
  to_settle_ = trace.size();
  settled_ = 0;
  arrived_ = 0;
  push_transmissions_ = 0;
  pull_transmissions_ = 0;
  reoptimizations_ = 0;
  queue_len_area_ = 0.0;
  queue_len_last_t_ = 0.0;
  cutoff_history_.clear();

  // Initial partition: the catalog's own rank order (ids 0..D-1).
  std::vector<catalog::ItemId> initial_ranking(catalog_->size());
  for (catalog::ItemId id = 0; id < catalog_->size(); ++id) {
    initial_ranking[id] = id;
  }
  set_push_set(initial_ranking, config_.initial_cutoff);

  sim_.attach_arrivals(
      trace.size(), [&trace](std::size_t i) { return trace[i].arrival; },
      [this, &trace](std::size_t i) { on_arrival(trace[i]); });
  server_busy_ = false;
  if (!push_list_.empty()) {
    server_busy_ = true;
    sim_.schedule_at(0.0, [this]() { serve_next(/*just_did_push=*/true); });
  }
  schedule_reoptimization();
  sim_.run();

  AdaptiveResult result;
  result.per_class = collector_->all();
  result.end_time = sim_.now();
  result.push_transmissions = push_transmissions_;
  result.pull_transmissions = pull_transmissions_;
  result.reoptimizations = reoptimizations_;
  result.cutoff_history = cutoff_history_;
  return result;
}

}  // namespace pushpull::core
