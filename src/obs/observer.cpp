#include "obs/observer.hpp"

namespace pushpull::obs {

namespace {

QuantileSummary summarize(std::string name, const QuantileMoments& track) {
  QuantileSummary s;
  s.name = std::move(name);
  const metrics::Welford& w = track.moments;
  s.count = w.count();
  s.mean = w.mean();
  s.min = w.min();
  s.max = w.max();
  s.p50 = track.p50.value();
  s.p90 = track.p90.value();
  s.p99 = track.p99.value();
  return s;
}

}  // namespace

RunObserver::RunObserver(const ObsConfig& config, std::size_t num_classes)
    : config_(config),
      sink_(config.trace_capacity, config.categories),
      num_classes_(num_classes),
      series_(num_classes + 1) {
  config_.validate();
}

ObsReport RunObserver::report() const {
  ObsReport r;
  r.enabled = true;
  r.categories = sink_.categories();
  r.trace_capacity = sink_.capacity();
  r.emitted = sink_.emitted();
  r.dropped = sink_.dropped();
  r.events = sink_.snapshot();
  r.counters = counters;
  r.counters.queue_enter = queue_.enters;
  r.counters.queue_leave = queue_.leaves;
  r.counters.queue_extracts = queue_.extracts;
  r.counters.queue_peak = queue_.peak;
  const std::vector<QuantileMoments>& series = series_.drain().series;
  r.histograms.push_back(summarize("pull_queue_len", series[0]));
  for (std::size_t c = 0; c < num_classes_; ++c) {
    r.histograms.push_back(
        summarize("response.class" + std::to_string(c), series[c + 1]));
  }
  return r;
}

}  // namespace pushpull::obs
