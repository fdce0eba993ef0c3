#include "core/server_core.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "fault/shedding.hpp"
#include "resilience/crash.hpp"
#include "resilience/snapshot.hpp"
#include "rng/exponential.hpp"
#include "rng/poisson.hpp"
#include "rng/splitmix64.hpp"
#include "rng/stream.hpp"
#include "rng/uniform.hpp"
#include "sched/pull/aging.hpp"

namespace pushpull::core {

// metrics keeps its own ClassId alias so the metrics layer never includes
// workload/ (layer DAG, tools/detlint/layers.toml); the core sees both
// layers, so it pins them together.
static_assert(std::is_same_v<workload::ClassId, metrics::ClassId>,
              "metrics::ClassId must stay alias-identical to "
              "workload::ClassId");

namespace {

[[nodiscard]] bool is_hedge(const workload::Request& r) noexcept {
  return (r.id & kHedgeIdBit) != 0;
}

/// The class whose bandwidth pool a pull transmission draws from: the most
/// important (lowest id) class with a pending request for the item.
[[nodiscard]] workload::ClassId owning_class(
    const sched::PullEntry& entry) noexcept {
  workload::ClassId best = entry.pending.front().cls;
  for (const auto& r : entry.pending) {
    if (r.cls < best) best = r.cls;
  }
  return best;
}

}  // namespace

ServerCore::ServerCore(const catalog::Catalog& cat,
                       const workload::ClientPopulation& pop,
                       HybridConfig config, LiveExtensions live)
    : catalog_(&cat),
      population_(&pop),
      config_(std::move(config)),
      live_(std::move(live)),
      hedging_(live_.hedge_after > 0.0),
      demand_eng_(rng::StreamFactory(config_.seed).stream("bandwidth-demand")),
      patience_eng_(rng::StreamFactory(config_.seed).stream("patience")) {
  if (config_.cutoff > cat.size()) {
    throw std::invalid_argument("ServerCore: cutoff beyond catalog size");
  }
  if (config_.warmup_fraction < 0.0 || config_.warmup_fraction >= 1.0) {
    throw std::invalid_argument(
        "ServerCore: warmup_fraction must be in [0, 1)");
  }
  config_.fault.validate();
  config_.resilience.validate();
  if (hedging_ && config_.resilience.crash.enabled) {
    throw std::invalid_argument(
        "ServerCore: hedging cannot be combined with the crash schedule");
  }
  if (config_.fault.enabled) {
    channel_.emplace(config_.fault.channel,
                     rng::StreamFactory(config_.seed).stream("fault-channel"));
  }
  overload_ = resilience::OverloadController(config_.resilience.overload);
  set_cutoff(config_.cutoff, 0);
  if (config_.cutoff > 0) {
    push_sched_ =
        sched::make_push_scheduler(config_.push_policy, cat, config_.cutoff);
  }
  pull_policy_ = sched::make_pull_policy(config_.pull_policy, config_.alpha);
  if (config_.aging_rate > 0.0) {
    pull_policy_ = std::make_unique<sched::AgingPolicy>(
        std::move(pull_policy_), config_.aging_rate);
  }
  if (config_.total_bandwidth > 0.0) {
    std::vector<double> fractions = config_.bandwidth_fractions;
    if (fractions.empty()) fractions.assign(pop.num_classes(), 1.0);
    if (fractions.size() != pop.num_classes()) {
      throw std::invalid_argument(
          "ServerCore: bandwidth fractions must match class count");
    }
    bandwidth_ = BandwidthManager(config_.total_bandwidth, std::move(fractions));
  }
  push_waiters_.resize(cat.size());
}

void ServerCore::note_queue_len_at(double now) {
  queue_len_area_ += static_cast<double>(pull_queue_.total_requests()) *
                     (now - queue_len_last_t_);
  queue_len_last_t_ = now;
  if (obs_) obs_->note_queue_len(pull_queue_.total_requests());
  if (queue_depth_) {
    queue_depth_->add(static_cast<double>(pull_queue_.total_requests()));
  }
}

void ServerCore::settle_one() {
  ++settled_;
  last_settle_ = sim_.now();
  if (settled_ == to_settle_) sim_.request_stop();
}

void ServerCore::arm_patience(const workload::Request& request) {
  if (config_.mean_patience <= 0.0) return;
  // Scales and the spike multiply the value after the draw, so the
  // patience stream is consumed identically with or without them.
  double patience =
      rng::exponential(patience_eng_, 1.0 / config_.mean_patience);
  patience *= live_.deadline_scale_for(request.cls);
  const double now = sim_.now();
  if (live_.deadline_spike_enabled() && now >= live_.deadline_spike_start &&
      now < live_.deadline_spike_start + live_.deadline_spike_duration) {
    patience *= live_.deadline_spike_factor;
  }
  const des::EventId event = sim_.schedule_in(
      patience, [this, request]() { on_patience_expired(request); });
  patience_.emplace(request.id, event);
}

void ServerCore::disarm_patience(workload::RequestId request) {
  if (config_.mean_patience <= 0.0) return;
  const auto it = patience_.find(request);
  if (it == patience_.end()) return;
  sim_.cancel(it->second);
  patience_.erase(it);
}

void ServerCore::on_patience_expired(const workload::Request& request) {
  patience_.erase(request.id);
  // The ladder's widen-push can move a request between the pull queue and
  // the push park while its timer is armed, so look in both places rather
  // than trusting the static cutoff test.
  bool removed = false;
  auto& waiters = push_waiters_[request.item];
  for (auto it = waiters.begin(); it != waiters.end(); ++it) {
    if (it->id == request.id) {
      waiters.erase(it);
      removed = true;
      break;
    }
  }
  if (!removed) {
    note_queue_len();
    removed = pull_queue_.remove_request(request.item, request.id,
                                         population_->priority(request.cls));
    if (removed && hedging_) {
      disarm_hedge(request.id);
      remove_hedge_dup(request);
    }
  }
  // The timer is disarmed whenever the request is committed or dropped, so
  // an expired timer must always find its request still waiting.
  if (!removed) {
    throw std::logic_error(
        "ServerCore: patience timer fired for request " +
        std::to_string(request.id) + " (item " +
        std::to_string(request.item) +
        ") that is no longer waiting; timers must be disarmed when a "
        "request is committed to a transmission or dropped");
  }
  retry_count_.erase(request.id);
  if (obs_) {
    ++obs_->counters.server_abandoned;
    trace_.emit<obs::Category::kQueue>(sim_.now(), "abandon", request.item,
                                       request.cls);
  }
  if (measured(request)) collector_->record_abandoned(request.cls);
  settle_one();
}

void ServerCore::arm_hedge(const workload::Request& request) {
  if (!hedging_ || hedged_.contains(request.id)) return;  // one dup at most
  hedge_timers_[request.id] = sim_.schedule_in(
      live_.hedge_after, [this, request]() { on_hedge_fire(request); });
}

void ServerCore::disarm_hedge(workload::RequestId request) {
  if (!hedging_) return;
  const auto it = hedge_timers_.find(request);
  if (it == hedge_timers_.end()) return;
  sim_.cancel(it->second);
  hedge_timers_.erase(it);
}

void ServerCore::remove_hedge_dup(const workload::Request& primary) {
  if (hedged_.erase(primary.id) == 0) return;
  // The duplicate rides the same item entry; drop it with its primary.
  (void)pull_queue_.remove_request(primary.item, primary.id | kHedgeIdBit,
                                   population_->priority(primary.cls));
}

void ServerCore::on_hedge_fire(const workload::Request& request) {
  hedge_timers_.erase(request.id);
  // A full queue suppresses the hedge rather than shedding for it — the
  // duplicate is an optimization, not admitted work.
  const std::size_t capacity = effective_queue_capacity();
  if (capacity > 0 && pull_queue_.total_requests() >= capacity) return;
  note_queue_len();
  workload::Request dup = request;
  dup.id |= kHedgeIdBit;
  dup.arrival = sim_.now();
  pull_queue_.add(dup, population_->priority(dup.cls),
                  catalog_->length(dup.item), catalog_->probability(dup.item));
  max_queue_len_ = std::max(max_queue_len_, pull_queue_.total_requests());
  hedged_.insert(request.id);
  ++hedges_posted_;
  trace_.emit<obs::Category::kRetry>(sim_.now(), "hedge", request.item,
                                     request.cls);
  wake();
}

bool ServerCore::transmission_corrupted() {
  if (!channel_.has_value()) return false;
  if (obs_) {
    // Traced draw: identical engine consumption, plus state-flip events
    // and the flip counter.
    return channel_->corrupts(trace_, sim_.now(),
                              &obs_->counters.fault_flips);
  }
  return channel_->corrupts();
}

void ServerCore::shed_request(const workload::Request& request) {
  retry_count_.erase(request.id);
  if (obs_) {
    ++obs_->counters.fault_shed;
    trace_.emit<obs::Category::kQueue>(sim_.now(), "shed", request.item,
                                       request.cls);
  }
  if (measured(request)) collector_->record_shed(request.cls);
  settle_one();
}

bool ServerCore::admit_pull(const workload::Request& request) {
  const std::size_t capacity = effective_queue_capacity();
  if (capacity == 0 || pull_queue_.total_requests() < capacity) return true;
  if (effective_shed_policy() == fault::ShedPolicy::kDropTail) {
    shed_request(request);
    return false;
  }
  // Drop-lowest-priority: sacrifice the least important queued request
  // (ties prefer the youngest; an arrival no more important than the victim
  // is the one shed — see fault::LowestPriorityVictim for the exact rule).
  fault::LowestPriorityVictim<workload::Request> scan;
  for (const auto& entry : pull_queue_.entries()) {
    for (const auto& r : entry.pending) {
      if (is_hedge(r)) continue;  // synthetic duplicates are not shed work
      scan.consider(r, population_->priority(r.cls), r.id);
    }
  }
  if (scan.arrival_yields_to(population_->priority(request.cls))) {
    shed_request(request);
    return false;
  }
  const workload::Request evicted = *scan.victim();  // copy before mutation
  disarm_patience(evicted.id);
  pull_queue_.remove_request(evicted.item, evicted.id, scan.priority());
  if (hedging_) {
    disarm_hedge(evicted.id);
    remove_hedge_dup(evicted);
  }
  shed_request(evicted);
  return true;
}

void ServerCore::enqueue_pull(const workload::Request& request) {
  pull_queue_.add(request, population_->priority(request.cls),
                  catalog_->length(request.item),
                  catalog_->probability(request.item));
  max_queue_len_ = std::max(max_queue_len_, pull_queue_.total_requests());
  trace_.emit<obs::Category::kQueue>(
      sim_.now(), "enter", request.item, request.cls,
      static_cast<double>(pull_queue_.total_requests()));
  arm_patience(request);
  arm_hedge(request);
}

void ServerCore::wake() {
  if (server_busy_) return;
  server_busy_ = true;
  serve_next(/*just_did_push=*/true);
}

void ServerCore::requeue_pull(const workload::Request& request) {
  if (down_) {
    // The uplink is dark with the server; the re-request lands once the
    // server is back.
    downtime_parked_.push_back(request);
    return;
  }
  note_queue_len();
  if (admit_pull(request)) enqueue_pull(request);
  wake();
}

void ServerCore::on_pull_corrupted(const sched::PullEntry& entry) {
  for (const auto& r : entry.pending) {
    if (is_hedge(r)) continue;  // the duplicate dies with the airtime
    if (measured(r)) collector_->record_corrupted(r.cls);
    const std::uint32_t attempt = ++retry_count_[r.id];
    if (attempt > config_.fault.retry.max_retries) {
      retry_count_.erase(r.id);
      if (obs_) {
        ++obs_->counters.fault_lost;
        trace_.emit<obs::Category::kFault>(sim_.now(), "lost", r.item,
                                           attempt);
      }
      if (measured(r)) collector_->record_lost(r.cls);
      settle_one();
      continue;
    }
    if (obs_) {
      ++obs_->counters.fault_retries;
      trace_.emit<obs::Category::kFault>(sim_.now(), "retry", r.item, attempt);
    }
    if (measured(r)) collector_->record_retry(r.cls);
    ++retries_pending_;
    sim_.schedule_in(config_.fault.retry.backoff_delay(attempt), [this, r]() {
      --retries_pending_;
      requeue_pull(r);
    });
  }
}

void ServerCore::deliver(const workload::Request& request, bool via_push) {
  const double now = sim_.now();
  if (obs_) {
    if (via_push) {
      ++obs_->counters.server_served_push;
    } else {
      ++obs_->counters.server_served_pull;
    }
    obs_->note_response(request.cls, now - request.arrival);
  }
  if (measured(request)) {
    // Deliver-at-end: latency runs from the arrival to the transmission
    // *end*, which is also the class's service instant (the inter-service
    // gap statistics).
    collector_->record_served(request.cls, now - request.arrival, via_push,
                              now);
  }
  settle_one();
  if (sink_) sink_->on_delivered(request);
}

void ServerCore::on_arrival(const workload::Request& request) {
  if (draining_) return;  // admission stopped: counted in skipped_
  ++arrivals_;
  if (obs_) ++obs_->counters.server_arrivals;
  if (sink_) sink_->record_request(request, request.arrival);
  if (measured(request)) collector_->record_arrival(request.cls);
  if (pushed(request.item)) {
    // Push item: the request is "ignored" by the scheduler (the item is on
    // the broadcast program anyway); park it to measure its delay.
    push_waiters_[request.item].push_back(request);
    trace_.emit<obs::Category::kQueue>(sim_.now(), "park_push", request.item,
                                       request.cls);
    arm_patience(request);
    return;
  }
  if (uplink_rejected(request.cls)) {
    // The ladder's admission control refuses the class at the uplink; the
    // request never enters server state.
    if (obs_) {
      ++obs_->counters.server_rejected;
      trace_.emit<obs::Category::kLadder>(sim_.now(), "reject", request.item,
                                          request.cls);
    }
    if (measured(request)) collector_->record_rejected(request.cls);
    settle_one();
    return;
  }
  if (down_) {
    // The server is dark; the request reaches it at recovery. Clients do
    // not abandon while parked (no patience armed until the queue admits
    // them).
    downtime_parked_.push_back(request);
    return;
  }
  note_queue_len();
  if (!admit_pull(request)) return;  // shed by the bounded-queue policy
  enqueue_pull(request);
  wake();  // a pure-pull server sleeping on an empty queue
}

void ServerCore::serve_next(bool just_did_push) {
  if (settled_ == to_settle_) {
    server_busy_ = false;
    return;
  }
  // A drain flushes the pull side back to back with no further broadcasts
  // (parked push waiters are in flight at the drain by definition); a
  // pure-pull server does the same. Either idles on an empty queue until
  // an arrival or a matured retry wakes it.
  if (draining_ || effective_cutoff() == 0) {
    if (pull_queue_.empty()) {
      server_busy_ = false;
      return;
    }
    start_pull();
    return;
  }
  // Strict alternation: one pull opportunity after every push.
  if (just_did_push && !pull_queue_.empty()) {
    start_pull();
  } else {
    start_push();
  }
}

void ServerCore::start_push() {
  const double now = sim_.now();
  const catalog::ItemId item = order_[push_sched_->next()];
  // Only clients already waiting when the transmission starts catch it;
  // arrivals during the airtime wait for the next replica.
  // The waiting list swaps with a spare buffer, so the item keeps a park
  // with capacity; the closure below returns `catching` to the spares.
  std::vector<workload::Request> catching;
  if (!spare_waiters_.empty()) {
    catching = std::move(spare_waiters_.back());
    spare_waiters_.pop_back();
  }
  catching.swap(push_waiters_[item]);
  // Once the item is on air, the waiting clients are committed to it.
  for (const auto& r : catching) disarm_patience(r.id);
  trace_.emit<obs::Category::kPush>(now, "tx_start", item, catching.size(),
                                    catalog_->length(item));
  if (sink_) sink_->record_decision(true, now, item, catching.size());
  on_air_ = catching.size();
  if (crash_active_) inflight_push_ = InFlightPush{item, catching};
  const std::uint64_t epoch = server_epoch_;
  sim_.schedule_in(
      catalog_->length(item),
      [this, item, epoch, catching = std::move(catching)]() mutable {
        if (epoch != server_epoch_) {  // voided by a crash
          recycle_waiters(std::move(catching));
          return;
        }
        inflight_push_.reset();
        on_air_ = 0;
        ++push_transmissions_;
        if (obs_) ++obs_->counters.push_tx;
        trace_.emit<obs::Category::kPush>(sim_.now(), "tx_end", item,
                                          catching.size());
        if (transmission_corrupted()) {
          // A corrupted broadcast needs no re-request: the item comes
          // around again next cycle, so the waiters just rejoin the
          // (re-armed) park and their delay grows by one period. Unless
          // the ladder shrank the item out of the broadcast program while
          // this replica was on air — then the park would strand them
          // forever (no next cycle, and the shrink migration can't see
          // passengers of an in-flight transmission), so they are pull
          // requests again and re-enter through admission control.
          // requeue_pull's wake is a no-op here (the server is busy), so
          // the serve_next below still decides with every passenger
          // queued.
          ++corrupted_push_transmissions_;
          if (obs_) ++obs_->counters.fault_corrupt_push;
          trace_.emit<obs::Category::kFault>(sim_.now(), "corrupt_push", item,
                                             catching.size());
          const bool still_broadcast = pushed(item);
          for (const auto& r : catching) {
            if (measured(r)) collector_->record_corrupted(r.cls);
            if (still_broadcast) {
              push_waiters_[item].push_back(r);
              arm_patience(r);
            } else {
              requeue_pull(r);
            }
          }
        } else {
          for (const auto& r : catching) deliver(r, true);
        }
        recycle_waiters(std::move(catching));
        serve_next(/*just_did_push=*/true);
      });
}

void ServerCore::start_pull() {
  const double now = sim_.now();
  note_queue_len();
  sched::PullContext ctx;
  ctx.now = now;
  ctx.expected_queue_len = now > 0.0 ? queue_len_area_ / now : 1.0;
  auto entry = pull_queue_.extract_best(*pull_policy_, ctx);
  if (!entry.has_value()) {
    throw std::logic_error(
        "ServerCore: start_pull on an empty pull queue; serve_next must "
        "only schedule a pull opportunity while entries are pending");
  }
  note_queue_len();
  trace_.emit<obs::Category::kQueue>(
      now, "extract", entry->item, entry->pending.size(),
      static_cast<double>(pull_queue_.total_requests()));
  std::uint64_t committed = entry->pending.size();
  for (const auto& r : entry->pending) {
    if (is_hedge(r)) {
      hedged_.erase(r.id & ~kHedgeIdBit);
      --committed;
      continue;
    }
    disarm_patience(r.id);
    disarm_hedge(r.id);
  }

  const double demand = config_.mean_bandwidth_demand > 0.0
                            ? static_cast<double>(rng::poisson(
                                  demand_eng_, config_.mean_bandwidth_demand))
                            : 0.0;
  const workload::ClassId cls = owning_class(*entry);
  const bool admitted = bandwidth_.try_acquire(cls, demand);
  if (config_.resilience.overload.enabled) {
    const double alpha = config_.resilience.overload.ewma_alpha;
    blocking_ewma_[cls] = alpha * (admitted ? 0.0 : 1.0) +
                          (1.0 - alpha) * blocking_ewma_[cls];
  }
  if (!admitted) {
    ++blocked_transmissions_;
    if (obs_) {
      ++obs_->counters.blocked_tx;
      obs_->counters.blocked_requests += entry->pending.size();
      trace_.emit<obs::Category::kPull>(now, "blocked", entry->item, cls,
                                        demand);
    }
    for (const auto& r : entry->pending) {
      retry_count_.erase(r.id);
      if (measured(r)) collector_->record_blocked(r.cls);
      settle_one();
    }
    pull_queue_.recycle(std::move(entry->pending));
    serve_next(/*just_did_push=*/false);
    return;
  }
  trace_.emit<obs::Category::kPull>(now, "tx_start", entry->item,
                                    entry->pending.size(), demand);
  if (sink_) {
    sink_->record_decision(false, now, entry->item, entry->pending.size());
  }
  on_air_ = committed;
  if (crash_active_) inflight_pull_ = InFlightPull{*entry, cls, demand};
  const std::uint64_t epoch = server_epoch_;
  sim_.schedule_in(entry->length, [this, epoch, entry = std::move(*entry),
                                   cls, demand]() mutable {
    if (epoch != server_epoch_) {  // voided by a crash
      pull_queue_.recycle(std::move(entry.pending));
      return;
    }
    inflight_pull_.reset();
    on_air_ = 0;
    bandwidth_.release(cls, demand);
    ++pull_transmissions_;
    if (obs_) ++obs_->counters.pull_tx;
    trace_.emit<obs::Category::kPull>(sim_.now(), "tx_end", entry.item,
                                      entry.pending.size());
    if (transmission_corrupted()) {
      ++corrupted_pull_transmissions_;
      if (obs_) ++obs_->counters.fault_corrupt_pull;
      trace_.emit<obs::Category::kFault>(sim_.now(), "corrupt_pull",
                                         entry.item, entry.pending.size());
      on_pull_corrupted(entry);
    } else {
      for (const auto& r : entry.pending) {
        if (is_hedge(r)) {
          ++hedges_absorbed_;
          continue;
        }
        retry_count_.erase(r.id);
        deliver(r, false);
      }
    }
    pull_queue_.recycle(std::move(entry.pending));
    serve_next(/*just_did_push=*/false);
  });
}

void ServerCore::set_cutoff(std::size_t cutoff, std::size_t boost) noexcept {
  cutoff_ = cutoff;
  cutoff_boost_ = boost;
  push_cut_ = std::min(cutoff + boost, catalog_->size());
}

std::size_t ServerCore::effective_queue_capacity() const noexcept {
  if (config_.fault.queue_capacity > 0) return config_.fault.queue_capacity;
  if (overload_.level() >= resilience::OverloadLevel::kShedLowPriority) {
    return config_.resilience.overload.capacity_ref;  // ladder soft cap
  }
  return 0;
}

fault::ShedPolicy ServerCore::effective_shed_policy() const noexcept {
  if (overload_.level() >= resilience::OverloadLevel::kShedLowPriority) {
    return fault::ShedPolicy::kDropLowestPriority;
  }
  return config_.fault.shed_policy;
}

bool ServerCore::uplink_rejected(workload::ClassId cls) const noexcept {
  const std::size_t classes = population_->num_classes();
  if (classes < 2) return false;  // never starve a single-class population
  if (overload_.level() >= resilience::OverloadLevel::kBrownout) {
    return cls >= 1;  // only the most important class is admitted
  }
  if (overload_.level() >= resilience::OverloadLevel::kAdmissionControl) {
    return cls == classes - 1;
  }
  return false;
}

void ServerCore::on_crash() {
  if (settled_ == to_settle_) return;  // the run already drained
  const double crash_time = sim_.now();
  const double recovery_time = crash_time + config_.resilience.crash.downtime;
  ++crash_count_;
  if (obs_) {
    ++obs_->counters.crash_count;
    trace_.emit<obs::Category::kCrash>(crash_time, "crash", crash_count_, 0,
                                       config_.resilience.crash.downtime);
  }
  total_downtime_ += config_.resilience.crash.downtime;
  ++server_epoch_;  // voids the in-flight transmission-end event
  down_ = true;
  server_busy_ = false;
  on_air_ = 0;
  // Recovery is scheduled before any storm re-request so that, at equal
  // instants, the server is back up before the first re-request lands.
  sim_.schedule_at(recovery_time, [this]() { on_recovered(); });

  // Clients committed to the on-air broadcast never got the item; their
  // state is client-side, so they simply rejoin the park and wait for the
  // next cycle after recovery.
  if (inflight_push_.has_value()) {
    for (const auto& r : inflight_push_->catching) {
      push_waiters_[inflight_push_->item].push_back(r);
      arm_patience(r);
    }
    inflight_push_.reset();
  }

  std::vector<workload::Request> storm;
  // The on-air pull transmission is lost with the server; its bandwidth
  // grant must be returned to the pool (the end event will never fire).
  if (inflight_pull_.has_value()) {
    bandwidth_.release(inflight_pull_->cls, inflight_pull_->demand);
    for (const auto& r : inflight_pull_->entry.pending) storm.push_back(r);
    inflight_pull_.reset();
  }

  // Queue state is server-side and dies with it. Warm recovery restores
  // the requests covered by the latest snapshot (decoded through the
  // versioned codec — the same path a process restart would take); cold
  // recovery loses everything, including the broadcast-cycle position.
  std::unordered_set<std::uint64_t> restored;
  if (config_.resilience.crash.recovery == resilience::RecoveryMode::kWarm &&
      !latest_snapshot_.empty()) {
    const resilience::QueueSnapshot snap =
        resilience::decode_snapshot(latest_snapshot_, snapshot_fingerprint_);
    for (const std::uint64_t id : snap.queued) restored.insert(id);
  } else if (config_.resilience.crash.recovery ==
             resilience::RecoveryMode::kCold) {
    if (push_sched_) push_sched_->reset();
  }
  std::vector<workload::Request> wiped;
  for (const auto& entry : pull_queue_.entries()) {
    for (const auto& r : entry.pending) {
      if (!restored.contains(r.id)) wiped.push_back(r);
    }
  }
  note_queue_len();
  for (const auto& r : wiped) {
    disarm_patience(r.id);
    pull_queue_.remove_request(r.item, r.id, population_->priority(r.cls));
    storm.push_back(r);
  }

  storm_rerequests_ += storm.size();
  largest_storm_ = std::max(largest_storm_, storm.size());
  if (obs_) {
    obs_->counters.crash_storm += storm.size();
    trace_.emit<obs::Category::kCrash>(crash_time, "storm", storm.size(),
                                       crash_count_);
  }
  for (const auto& r : storm) storm_rerequest(r, crash_time, recovery_time);
}

void ServerCore::storm_rerequest(const workload::Request& request,
                                 double crash_time, double recovery_time) {
  if (measured(request)) collector_->record_stormed(request.cls);
  const double spread = config_.resilience.crash.storm_spread;
  // At zero spread no draw is consumed, so a deliberately synchronized
  // storm replays identically with or without the jitter stream advanced.
  const double jitter =
      spread > 0.0 ? rng::uniform(*storm_eng_, 0.0, spread) : 0.0;
  const double when =
      recovery_time + config_.resilience.crash.rerequest_timeout + jitter;
  sim_.schedule_at(when, [this, request, crash_time]() {
    recovery_latency_.add(sim_.now() - crash_time);
    requeue_pull(request);
  });
}

void ServerCore::on_recovered() {
  down_ = false;
  trace_.emit<obs::Category::kCrash>(sim_.now(), "recover",
                                     downtime_parked_.size(), crash_count_);
  // Requests that arrived (or matured from retry backoffs) while the
  // server was dark land now, in arrival order.
  std::vector<workload::Request> parked = std::move(downtime_parked_);
  downtime_parked_.clear();
  for (const auto& r : parked) requeue_pull(r);
  if (settled_ < to_settle_) wake();
}

void ServerCore::take_snapshot() {
  if (settled_ == to_settle_) return;
  if (!down_) {
    resilience::QueueSnapshot snap;
    snap.time = sim_.now();
    for (const auto& entry : pull_queue_.entries()) {
      for (const auto& r : entry.pending) snap.queued.push_back(r.id);
    }
    latest_snapshot_ = resilience::encode_snapshot(snap, snapshot_fingerprint_);
    if (obs_) {
      ++obs_->counters.crash_snapshots;
      trace_.emit<obs::Category::kCrash>(sim_.now(), "snapshot",
                                         snap.queued.size());
    }
  }
  sim_.schedule_in(config_.resilience.crash.snapshot_interval,
                   [this]() { take_snapshot(); });
}

void ServerCore::evaluate_overload() {
  if (settled_ == to_settle_) return;
  const resilience::OverloadConfig& ladder = config_.resilience.overload;
  // Occupancy counts the requests widen-push parked out of the pull queue:
  // they are still the ladder's backlog until delivered. Excluding them
  // makes the controller oscillate (widening empties the queue, the next
  // evaluation de-escalates, the shrink refills the queue), and each flip
  // restarts the push program, which can starve the de-widened items
  // forever when no patience timer reaps them.
  std::size_t backlog = pull_queue_.total_requests();
  for (std::size_t rank = cutoff_; rank < effective_cutoff(); ++rank) {
    backlog += push_waiters_[order_[rank]].size();
  }
  const std::size_t cap = config_.fault.queue_capacity > 0
                              ? config_.fault.queue_capacity
                              : ladder.capacity_ref;
  const double occupancy =
      static_cast<double>(backlog) / static_cast<double>(cap);
  double worst_ewma = 0.0;
  for (const double e : blocking_ewma_) worst_ewma = std::max(worst_ewma, e);
  const resilience::OverloadLevel before = overload_.level();
  const resilience::OverloadLevel after =
      obs_ ? overload_.update(sim_.now(), occupancy, worst_ewma, trace_)
           : overload_.update(sim_.now(), occupancy, worst_ewma);
  if (after != before) {
    if (obs_) ++obs_->counters.ladder_transitions;
    // The journal stamp precedes the push/pull decisions the new level
    // causes, so a reader sees transitions in causal order.
    if (sink_) {
      sink_->record_ladder(sim_.now(), static_cast<int>(before),
                           static_cast<int>(after));
    }
    apply_overload_level(after);
  }
  ladder_event_ = sim_.schedule_in(ladder.eval_interval,
                                   [this]() { evaluate_overload(); });
}

void ServerCore::apply_overload_level(resilience::OverloadLevel level) {
  // Shedding policy and soft cap are consulted on the fly by
  // effective_shed_policy()/effective_queue_capacity(); the only action
  // with state to migrate is the widen-push cutoff boost.
  const std::size_t boost =
      level >= resilience::OverloadLevel::kWidenPush
          ? config_.resilience.overload.cutoff_step
          : 0;
  if (boost != cutoff_boost_) apply_cutoff_boost(boost);
}

void ServerCore::apply_cutoff_boost(std::size_t boost) {
  const std::size_t old_cut = effective_cutoff();
  set_cutoff(cutoff_, boost);
  const std::size_t new_cut = effective_cutoff();
  if (new_cut == old_cut) return;
  if (obs_) {
    ++obs_->counters.cutoff_boosts;
    trace_.emit<obs::Category::kCutoff>(sim_.now(), "boost", old_cut, new_cut);
  }
  const std::span<const catalog::ItemId> order(order_);
  if (new_cut > old_cut) {
    move_boundary(order.subspan(old_cut, new_cut - old_cut), {});
  } else {
    move_boundary({}, order.subspan(new_cut, old_cut - new_cut));
  }
}

void ServerCore::repartition(std::span<const catalog::ItemId> order,
                             std::size_t cutoff) {
  if (order.size() != order_.size() || cutoff > order.size()) {
    throw std::invalid_argument(
        "ServerCore: repartition needs a full rank order and a cutoff "
        "within the catalog");
  }
  const std::size_t old_cut = effective_cutoff();
  const std::size_t new_cut = std::min(cutoff + cutoff_boost_, order.size());
  // The items that change sides, found against the old ranks.
  std::vector<catalog::ItemId> to_push;
  for (std::size_t rank = 0; rank < new_cut; ++rank) {
    if (rank_[order[rank]] >= old_cut) to_push.push_back(order[rank]);
  }
  std::vector<catalog::ItemId> to_pull(
      order_.begin(), order_.begin() + static_cast<std::ptrdiff_t>(old_cut));
  set_cutoff(cutoff, cutoff_boost_);
  order_.assign(order.begin(), order.end());
  for (std::size_t rank = 0; rank < order_.size(); ++rank) {
    rank_[order_[rank]] = static_cast<catalog::ItemId>(rank);
  }
  std::erase_if(to_pull,
                [this](catalog::ItemId item) { return pushed(item); });
  move_boundary(to_push, to_pull);
}

void ServerCore::move_boundary(std::span<const catalog::ItemId> to_push,
                               std::span<const catalog::ItemId> to_pull) {
  const std::size_t cut = effective_cutoff();
  push_sched_ = cut > 0 ? sched::make_push_scheduler(config_.push_policy,
                                                     *catalog_, cut)
                        : nullptr;
  if (!to_push.empty()) {
    // Newly pushed items ride the broadcast. Their queued requests become
    // push waiters; patience timers stay armed (the client is still
    // waiting for the same item). Hedge duplicates die here — broadcast
    // delivery needs no importance boost.
    note_queue_len();
    for (const catalog::ItemId item : to_push) {
      auto entry = pull_queue_.extract(item);
      if (!entry.has_value()) continue;
      for (const auto& r : entry->pending) {
        if (is_hedge(r)) {
          hedged_.erase(r.id & ~kHedgeIdBit);
          continue;
        }
        disarm_hedge(r.id);
        push_waiters_[r.item].push_back(r);
      }
      pull_queue_.recycle(std::move(entry->pending));
    }
  }
  // Parked waiters of newly pulled items are pull requests again and
  // re-enter through admission control.
  for (const catalog::ItemId item : to_pull) {
    std::vector<workload::Request> waiters = std::move(push_waiters_[item]);
    push_waiters_[item].clear();
    for (const auto& r : waiters) {
      disarm_patience(r.id);
      requeue_pull(r);
    }
  }
  if (!down_ && !draining_ && settled_ < to_settle_ && cut > 0) {
    // A pure-pull server asleep on an empty queue now has a broadcast
    // program to run.
    wake();
  }
}

void ServerCore::begin(std::uint64_t planned, double span,
                       obs::RunObserver* observer, DecisionSink* sink,
                       bool track_queue_depth) {
  // Reset run-scoped state so a core can host many runs, including the
  // per-run random engines (bandwidth demands, patience).
  sim_.reset();
  demand_eng_ = rng::StreamFactory(config_.seed).stream("bandwidth-demand");
  patience_eng_ = rng::StreamFactory(config_.seed).stream("patience");
  if (channel_) {
    channel_->reset(rng::StreamFactory(config_.seed).stream("fault-channel"));
  }
  pull_queue_.clear();
  patience_.clear();
  retry_count_.clear();
  hedge_timers_.clear();
  hedged_.clear();
  obs_ = observer;
  trace_ = obs_ ? obs_->tracer() : obs::Tracer{};
  sink_ = sink;
  sim_.set_tracer(trace_);
  pull_queue_.set_counters(obs_ ? obs_->queue_counters() : nullptr);
  des_scheduled_base_ = sim_.scheduled_events();
  des_dispatched_base_ = sim_.dispatched_events();
  des_cancelled_base_ = sim_.cancelled_events();
  if (cutoff_boost_ > 0 || cutoff_ != config_.cutoff) {
    // Undo a widen-push or a repartition left over from the previous run.
    set_cutoff(config_.cutoff, 0);
    push_sched_ = cutoff_ > 0 ? sched::make_push_scheduler(
                                    config_.push_policy, *catalog_, cutoff_)
                              : nullptr;
  }
  if (push_sched_) push_sched_->reset();
  order_.resize(catalog_->size());
  rank_.resize(catalog_->size());
  std::iota(order_.begin(), order_.end(), catalog::ItemId{0});
  std::iota(rank_.begin(), rank_.end(), catalog::ItemId{0});
  for (auto& waiters : push_waiters_) waiters.clear();
  collector_ =
      std::make_unique<metrics::ClassCollector>(population_->num_classes());
  to_settle_ = planned;
  settled_ = 0;
  arrivals_ = 0;
  last_settle_ = 0.0;
  server_busy_ = false;
  push_transmissions_ = 0;
  pull_transmissions_ = 0;
  blocked_transmissions_ = 0;
  corrupted_push_transmissions_ = 0;
  corrupted_pull_transmissions_ = 0;
  on_air_ = 0;
  retries_pending_ = 0;
  queue_len_area_ = 0.0;
  queue_len_last_t_ = 0.0;
  max_queue_len_ = 0;
  queue_depth_.reset();
  if (track_queue_depth) queue_depth_.emplace();
  warmup_time_ = config_.warmup_fraction * span;
  hedges_posted_ = 0;
  hedges_absorbed_ = 0;
  draining_ = false;
  drain_time_ = 0.0;
  skipped_ = 0;

  // Resilience state. With crashes disabled and the ladder off nothing
  // below derives a stream or schedules an event, keeping the fault-free
  // path bit-identical.
  const resilience::CrashConfig& crash = config_.resilience.crash;
  down_ = false;
  server_epoch_ = 0;
  inflight_push_.reset();
  inflight_pull_.reset();
  downtime_parked_.clear();
  storm_eng_.reset();
  latest_snapshot_.clear();
  crash_count_ = 0;
  total_downtime_ = 0.0;
  storm_rerequests_ = 0;
  largest_storm_ = 0;
  recovery_latency_ = metrics::Welford{};
  overload_.reset();
  ladder_event_ = 0;
  blocking_ewma_.assign(population_->num_classes(), 0.0);
  crash_active_ = crash.enabled && crash.rate > 0.0;
  if (crash_active_) {
    storm_eng_ = rng::StreamFactory(config_.seed).stream("crash-storm");
    snapshot_fingerprint_ = rng::SplitMix64::mix(
        config_.seed ^
        rng::SplitMix64::mix((static_cast<std::uint64_t>(catalog_->size())
                              << 32) ^
                             population_->num_classes() ^
                             (static_cast<std::uint64_t>(config_.cutoff)
                              << 16)));
    const resilience::CrashSchedule schedule = resilience::CrashSchedule::
        poisson(crash, span,
                rng::StreamFactory(config_.seed).stream("crash-schedule"));
    for (const double t : schedule.times()) {
      sim_.schedule_at(t, [this]() { on_crash(); });
    }
    if (crash.recovery == resilience::RecoveryMode::kWarm &&
        !schedule.empty()) {
      sim_.schedule_at(crash.snapshot_interval, [this]() { take_snapshot(); });
    }
  }
  if (config_.resilience.overload.enabled) {
    ladder_event_ =
        sim_.schedule_at(config_.resilience.overload.eval_interval,
                         [this]() { evaluate_overload(); });
  }
}

void ServerCore::start() {
  if (cutoff_ == 0) return;  // pure pull: sleep until an arrival
  server_busy_ = true;
  sim_.schedule_at(0.0, [this]() { serve_next(/*just_did_push=*/true); });
}

void ServerCore::run() {
  const double drain_at = live_.drain_after;
  if (drain_at <= 0.0) {
    sim_.run();
    return;
  }
  // Admission runs up to the first event at or past the drain instant;
  // the pull side then flushes.
  while (!done() && sim_.next_time() < drain_at) sim_.step();
  if (!done()) engage_drain(drain_at, to_settle_ - arrivals_);
  while (!done() && sim_.step()) {
  }
}

void ServerCore::engage_drain(double at, std::uint64_t skipped) {
  draining_ = true;
  drain_time_ = at;
  skipped_ = skipped;
  to_settle_ = arrivals_;  // only injected requests can still settle
  if (config_.resilience.overload.enabled) sim_.cancel(ladder_event_);
  if (sink_) sink_->record_drain(at, skipped);
  trace_.emit<obs::Category::kDrain>(at, "drain", skipped);
}

bool ServerCore::done() const noexcept {
  if (!draining_) return settled_ == to_settle_;
  return queued_requests() == 0 && retries_pending_ == 0 && !server_busy_;
}

double ServerCore::end_time() const noexcept {
  // The kernel stops at the last settlement; a drained run ends no earlier
  // than its drain instant.
  if (draining_) return std::max(last_settle_, drain_time_);
  return settled_ > 0 ? last_settle_ : sim_.now();
}

void ServerCore::finish() {
  note_queue_len_at(end_time());
  if (obs_) {
    obs_->counters.des_scheduled =
        sim_.scheduled_events() - des_scheduled_base_;
    obs_->counters.des_dispatched =
        sim_.dispatched_events() - des_dispatched_base_;
    obs_->counters.des_cancelled =
        sim_.cancelled_events() - des_cancelled_base_;
  }
}

SimResult ServerCore::result() const {
  const double end = end_time();
  SimResult result;
  // Both reads join their fold helpers: no thread outlives the result.
  result.per_class = collector_->all();
  if (queue_depth_) (void)queue_depth_->folded();
  result.end_time = end;
  result.push_transmissions = push_transmissions_;
  result.pull_transmissions = pull_transmissions_;
  result.blocked_transmissions = blocked_transmissions_;
  result.corrupted_push_transmissions = corrupted_push_transmissions_;
  result.corrupted_pull_transmissions = corrupted_pull_transmissions_;
  result.mean_pull_queue_len = end > 0.0 ? queue_len_area_ / end : 0.0;
  result.max_pull_queue_len = max_queue_len_;
  result.crashes = crash_count_;
  result.total_downtime = total_downtime_;
  result.storm_rerequests = storm_rerequests_;
  result.largest_storm = largest_storm_;
  result.recovery_latency = recovery_latency_;
  result.overload_transitions = overload_.transitions();
  result.max_overload_level = overload_.max_level();
  result.event_order_violations = sim_.order_violations();
  return result;
}

ConservationLedger ServerCore::ledger() const {
  const metrics::ClassStats agg = collector_->aggregate();
  ConservationLedger ledger;
  ledger.injected = arrivals_;
  ledger.delivered = agg.served;
  ledger.timed_out = agg.abandoned;
  ledger.rejected = agg.rejected;
  ledger.shed = agg.shed;
  ledger.lost = agg.lost;
  std::uint64_t waiting = queued_requests() + on_air_ + retries_pending_ +
                          downtime_parked_.size();
  for (const auto& waiters : push_waiters_) waiting += waiters.size();
  ledger.in_flight_at_drain = waiting;
  return ledger;
}

}  // namespace pushpull::core
