#include "serve/live_server.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/export.hpp"

namespace pushpull::serve {

using obs::render_number;

namespace {

ServeConfig validated(ServeConfig config) {
  config.validate();
  return config;
}

}  // namespace

LiveServer::LiveServer(const catalog::Catalog& cat,
                       const workload::ClientPopulation& pop,
                       ServeConfig config)
    : config_(validated(std::move(config))),
      core_(cat, pop, config_.hybrid(), config_) {
  if (config_.num_items != cat.size()) {
    throw std::invalid_argument(
        "LiveServer: config.num_items disagrees with the catalog");
  }
  if (config_.num_classes != pop.num_classes()) {
    throw std::invalid_argument(
        "LiveServer: config.num_classes disagrees with the population");
  }
}

void LiveServer::record_request(const workload::Request& request,
                                double observed_time) {
  if (recorder_) recorder_->record_request(request, observed_time);
}

void LiveServer::record_decision(bool push, double time, catalog::ItemId item,
                                 std::size_t delivered) {
  if (recorder_) recorder_->record_decision(push, time, item, delivered);
}

void LiveServer::record_ladder(double time, int from, int to) {
  if (recorder_) recorder_->record_ladder(time, from, to);
}

void LiveServer::record_drain(double time, std::uint64_t skipped) {
  if (recorder_) recorder_->record_drain(time, skipped);
}

ServeReport LiveServer::finish(const CompletionQueue* queue) {
  core_.finish();
  const ConservationLedger ledger = core_.ledger();
  const metrics::ClassStats agg = core_.collector().aggregate();
  if (!core_.draining() && ledger.in_flight_at_drain != 0) {
    throw std::logic_error(
        "LiveServer: conservation violation — " +
        std::to_string(ledger.in_flight_at_drain) +
        " requests still structurally in flight after a completed "
        "(non-drained) run");
  }
  if (!ledger.balanced()) {
    throw std::logic_error(
        "LiveServer: conservation violation — ledger does not balance: " +
        ledger.render_json());
  }
  if (agg.blocked != 0) {
    throw std::logic_error(
        "LiveServer: conservation violation — the live channel cannot "
        "block transmissions");
  }
  if (recorder_) recorder_->seal(ledger);

  const core::SimResult result = core_.result();
  ServeReport report;
  report.accelerated = config_.accelerated;
  report.duration = config_.duration;
  report.target_qps = config_.target_qps;
  report.end_time = result.end_time;
  report.arrivals = core_.arrivals();
  report.served = agg.served;
  report.push_transmissions = result.push_transmissions;
  report.pull_transmissions = result.pull_transmissions;
  report.achieved_qps = result.end_time > 0.0
                            ? static_cast<double>(report.arrivals) /
                                  result.end_time
                            : 0.0;
  report.mean_pull_queue_len = result.mean_pull_queue_len;
  report.max_pull_queue_len = result.max_pull_queue_len;
  const obs::QuantileMoments& depth = core_.queue_depth()->folded();
  report.queue_depth.name = "pull_queue_len";
  report.queue_depth.count = depth.moments.count();
  report.queue_depth.mean = depth.moments.mean();
  report.queue_depth.min = depth.moments.min();
  report.queue_depth.max = depth.moments.max();
  if (report.queue_depth.count > 0) {
    report.queue_depth.p50 = depth.p50.value();
    report.queue_depth.p90 = depth.p90.value();
    report.queue_depth.p99 = depth.p99.value();
  }
  if (queue != nullptr) {
    report.cq_posted = queue->posted();
    report.cq_high_water = queue->high_water();
  } else {
    // Accelerated: the figures of a queue that every arrival and slot end
    // would pass through one at a time.
    report.cq_posted = report.arrivals + result.push_transmissions +
                       result.pull_transmissions;
    report.cq_high_water = report.cq_posted > 0 ? 1 : 0;
  }
  report.per_class = result.per_class;
  report.robust = config_.robust();
  report.timed_out = agg.abandoned;
  report.retries = agg.retries;
  report.lost = agg.lost;
  report.shed = agg.shed;
  report.rejected = agg.rejected;
  report.corrupted = agg.corrupted;
  report.corrupted_push_transmissions = result.corrupted_push_transmissions;
  report.corrupted_pull_transmissions = result.corrupted_pull_transmissions;
  report.hedges_posted = core_.hedges_posted();
  report.hedges_absorbed = core_.hedges_absorbed();
  report.ladder_transitions = result.overload_transitions.size();
  report.overload_transitions = result.overload_transitions;
  report.max_overload_level = result.max_overload_level;
  report.drained = core_.draining();
  report.drain_time = core_.drain_time();
  report.skipped_arrivals = core_.skipped_arrivals();
  report.ledger = ledger;
  return report;
}

ServeReport LiveServer::run_accelerated(LoadDriver& driver,
                                        JournalSink* recorder) {
  recorder_ = recorder;
  const workload::Trace& plan = driver.plan();
  const std::uint64_t planned = driver.remaining();
  const std::size_t first = plan.size() - planned;
  core_.begin(planned, plan.span(), observer_, this,
              /*track_queue_depth=*/true);
  // The rest of the plan is the kernel's arrival stream. Once a drain
  // stops admission the remaining arrivals are left in the plan, untaken.
  core_.sim().attach_arrivals(
      planned,
      [&plan, first](std::size_t i) { return plan[first + i].arrival; },
      [this, &driver](std::size_t) {
        if (core_.draining()) return;
        core_.on_arrival(driver.take());
      });
  if (planned > 0) {
    core_.start();
    core_.run();
    if (!core_.done()) {
      throw std::logic_error(
          "LiveServer: stalled — plan exhausted and server idle while "
          "requests remain unsettled");
    }
  }
  return finish(nullptr);
}

ServeReport LiveServer::run_realtime(CompletionQueue& queue, Clock& clock,
                                     std::uint64_t planned,
                                     JournalSink* recorder) {
  recorder_ = recorder;
  core_.begin(planned, 0.0, observer_, this, /*track_queue_depth=*/true);
  des::Simulator& sim = core_.sim();
  if (planned > 0) core_.start();
  bool load_done = false;
  while (!core_.done()) {
    if (!core_.draining()) {
      const bool external =
          drain_flag_ != nullptr &&
          drain_flag_->load(std::memory_order_relaxed);
      const bool horizon =
          config_.drain_after > 0.0 && clock.now() >= config_.drain_after;
      if (external || horizon) {
        const double at = horizon && !external
                              ? config_.drain_after
                              : clock.now();
        sim.run_until(at);
        core_.engage_drain(at, planned - core_.arrivals());
        continue;
      }
    }
    if (!load_done) {
      double timeout = 0.05;
      if (!sim.idle()) {
        timeout = std::min(timeout, clock.seconds_until(sim.next_time()));
      }
      const std::optional<Completion> c =
          queue.pop(std::max(timeout, 0.0));
      if (c.has_value()) {
        // A drained loop discards late arrivals: they are part of the
        // skipped count stamped at engagement.
        if (c->kind == CompletionKind::kArrival && !core_.draining()) {
          // The arrival joins the logical timeline at its stamp, after the
          // slots and timers due by then, so it can only be delivered by a
          // transmission ending after it was observed. A stamp trailing
          // the kernel clock (pacer skew) lands at the kernel's now but
          // keeps its observed arrival time.
          workload::Request request = c->request;
          request.arrival = c->time;
          sim.schedule_at(std::max(c->time, sim.now()),
                          [this, request]() { core_.on_arrival(request); });
        }
      } else if (queue.closed() && queue.depth() == 0) {
        load_done = true;
      }
    } else if (!sim.idle()) {
      // No more producers; pace out the remaining work.
      const double budget = clock.seconds_until(sim.next_time());
      if (budget > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(budget));
      }
    } else if (core_.draining()) {
      break;  // nothing on air, nothing queued, nothing pending
    } else {
      throw std::logic_error(
          "LiveServer: stalled — load ended and server idle while "
          "requests remain unsettled");
    }
    sim.run_until(clock.now());
  }
  return finish(&queue);
}

std::string render_serve_report(const ServeReport& report) {
  std::ostringstream out;
  out << "{\"schema\":\"serve1\""
      << ",\"accelerated\":" << (report.accelerated ? 1 : 0)
      << ",\"duration\":" << render_number(report.duration)
      << ",\"target_qps\":" << render_number(report.target_qps)
      << ",\"achieved_qps\":" << render_number(report.achieved_qps)
      << ",\"end_time\":" << render_number(report.end_time)
      << ",\"arrivals\":" << report.arrivals
      << ",\"served\":" << report.served
      << ",\"push_tx\":" << report.push_transmissions
      << ",\"pull_tx\":" << report.pull_transmissions
      << ",\"mean_pull_queue_len\":"
      << render_number(report.mean_pull_queue_len)
      << ",\"max_pull_queue_len\":" << report.max_pull_queue_len
      << ",\"queue_depth\":{\"count\":" << report.queue_depth.count
      << ",\"mean\":" << render_number(report.queue_depth.mean)
      << ",\"max\":" << render_number(report.queue_depth.max)
      << ",\"p50\":" << render_number(report.queue_depth.p50)
      << ",\"p90\":" << render_number(report.queue_depth.p90)
      << ",\"p99\":" << render_number(report.queue_depth.p99) << "}"
      << ",\"cq_posted\":" << report.cq_posted
      << ",\"cq_high_water\":" << report.cq_high_water;
  if (report.robust) {
    out << ",\"timed_out\":" << report.timed_out
        << ",\"retries\":" << report.retries
        << ",\"lost\":" << report.lost << ",\"shed\":" << report.shed
        << ",\"rejected\":" << report.rejected
        << ",\"corrupted\":" << report.corrupted
        << ",\"hedges_posted\":" << report.hedges_posted
        << ",\"hedges_absorbed\":" << report.hedges_absorbed
        << ",\"ladder_transitions\":" << report.ladder_transitions
        << ",\"max_overload_level\":"
        << static_cast<int>(report.max_overload_level)
        << ",\"drained\":" << (report.drained ? 1 : 0)
        << ",\"drain_time\":" << render_number(report.drain_time)
        << ",\"skipped_arrivals\":" << report.skipped_arrivals
        << ",\"ledger\":" << report.ledger.render_json();
  }
  out << "}\n";
  for (std::size_t cls = 0; cls < report.per_class.size(); ++cls) {
    const metrics::ClassStats& s = report.per_class[cls];
    out << "{\"class\":" << cls << ",\"arrived\":" << s.arrived
        << ",\"served\":" << s.served
        << ",\"served_push\":" << s.served_push
        << ",\"served_pull\":" << s.served_pull
        << ",\"mean_wait\":" << render_number(s.wait.mean())
        << ",\"wait_p50\":"
        << render_number(s.wait_p50.count() ? s.wait_p50.value() : 0.0)
        << ",\"wait_p95\":"
        << render_number(s.wait_p95.count() ? s.wait_p95.value() : 0.0)
        << ",\"wait_p99\":"
        << render_number(s.wait_p99.count() ? s.wait_p99.value() : 0.0);
    if (report.robust) {
      out << ",\"timed_out\":" << s.abandoned
          << ",\"retries\":" << s.retries << ",\"shed\":" << s.shed
          << ",\"lost\":" << s.lost << ",\"rejected\":" << s.rejected;
    }
    out << "}\n";
  }
  return out.str();
}

}  // namespace pushpull::serve
