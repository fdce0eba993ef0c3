#include "core/multichannel_server.hpp"

#include <stdexcept>
#include <string>

namespace pushpull::core {

MultiChannelServer::MultiChannelServer(const catalog::Catalog& cat,
                                       const workload::ClientPopulation& pop,
                                       MultiChannelConfig config)
    : catalog_(&cat), population_(&pop), config_(std::move(config)) {
  if (config_.cutoff > cat.size()) {
    throw std::invalid_argument(
        "MultiChannelServer: cutoff beyond catalog size");
  }
  if (config_.num_pull_channels == 0) {
    throw std::invalid_argument(
        "MultiChannelServer: need at least one pull channel");
  }
  if (config_.cutoff > 0) {
    push_sched_ =
        sched::make_push_scheduler(config_.push_policy, cat, config_.cutoff);
  }
  pull_policy_ = sched::make_pull_policy(config_.pull_policy, config_.alpha);
  push_waiters_.resize(cat.size());
}

void MultiChannelServer::settle_one() {
  ++settled_;
  if (settled_ == to_settle_) sim_.request_stop();
}

void MultiChannelServer::deliver(const workload::Request& request,
                                 bool via_push) {
  collector_->record_served(request.cls, sim_.now() - request.arrival,
                            via_push, sim_.now());
  settle_one();
}

void MultiChannelServer::on_arrival(const workload::Request& request) {
  collector_->record_arrival(request.cls);
  if (request.item < config_.cutoff) {
    push_waiters_[request.item].push_back(request);
    return;
  }
  const des::SimTime now = sim_.now();
  queue_len_area_ += static_cast<double>(pull_queue_.total_requests()) *
                     (now - queue_len_last_t_);
  queue_len_last_t_ = now;
  pull_queue_.add(request, population_->priority(request.cls),
                  catalog_->length(request.item),
                  catalog_->probability(request.item));
  try_dispatch_pulls();
}

void MultiChannelServer::push_loop() {
  if (settled_ == to_settle_) return;
  const catalog::ItemId item = push_sched_->next();
  std::vector<workload::Request> catching = std::move(push_waiters_[item]);
  push_waiters_[item].clear();
  const double airtime = catalog_->length(item);
  push_airtime_ += airtime;
  sim_.schedule_in(airtime, [this, catching = std::move(catching)]() {
    ++push_transmissions_;
    for (const auto& r : catching) deliver(r, true);
    push_loop();  // the broadcast channel never pauses
  });
}

void MultiChannelServer::try_dispatch_pulls() {
  for (std::size_t channel = 0;
       channel < channel_busy_.size() && !pull_queue_.empty(); ++channel) {
    if (!channel_busy_[channel]) dispatch_pull(channel);
  }
}

void MultiChannelServer::dispatch_pull(std::size_t channel) {
  if (channel_busy_[channel]) {
    throw std::logic_error(
        "MultiChannelServer: dispatch on busy pull channel " +
        std::to_string(channel));
  }
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
        "MultiChannelServer: non-empty pull queue yielded no entry");
  }
  channel_busy_[channel] = true;
  channel_airtime_[channel] += entry->length;
  sim_.schedule_in(entry->length,
                   [this, channel, entry = std::move(*entry)]() {
                     ++pull_transmissions_;
                     channel_busy_[channel] = false;
                     for (const auto& r : entry.pending) deliver(r, false);
                     if (!pull_queue_.empty()) dispatch_pull(channel);
                   });
}

MultiChannelResult MultiChannelServer::run(const workload::Trace& trace) {
  sim_.reset();
  pull_queue_.clear();
  if (push_sched_) push_sched_->reset();
  for (auto& waiters : push_waiters_) waiters.clear();
  collector_ =
      std::make_unique<metrics::ClassCollector>(population_->num_classes());
  channel_busy_.assign(config_.num_pull_channels, false);
  channel_airtime_.assign(config_.num_pull_channels, 0.0);
  push_airtime_ = 0.0;
  to_settle_ = trace.size();
  settled_ = 0;
  push_transmissions_ = 0;
  pull_transmissions_ = 0;
  queue_len_area_ = 0.0;
  queue_len_last_t_ = 0.0;

  sim_.attach_arrivals(
      trace.size(), [&trace](std::size_t i) { return trace[i].arrival; },
      [this, &trace](std::size_t i) { on_arrival(trace[i]); });
  if (config_.cutoff > 0 && !trace.empty()) {
    sim_.schedule_at(0.0, [this]() { push_loop(); });
  }
  sim_.run();

  MultiChannelResult result;
  result.per_class = collector_->all();
  result.end_time = sim_.now();
  result.push_transmissions = push_transmissions_;
  result.pull_transmissions = pull_transmissions_;
  if (result.end_time > 0.0) {
    result.push_channel_utilization = push_airtime_ / result.end_time;
    result.pull_channel_utilization.resize(config_.num_pull_channels);
    for (std::size_t c = 0; c < config_.num_pull_channels; ++c) {
      result.pull_channel_utilization[c] =
          channel_airtime_[c] / result.end_time;
    }
  } else {
    result.pull_channel_utilization.assign(config_.num_pull_channels, 0.0);
  }
  return result;
}

}  // namespace pushpull::core
