#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "metrics/fold_pipe.hpp"
#include "metrics/p2_quantile.hpp"
#include "metrics/welford.hpp"
#include "obs/config.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace pushpull::obs {

/// Welford moments plus P² tail estimates for one sim-time series
/// (pull-queue length, per-class response time).
struct QuantileMoments {
  metrics::Welford moments;
  metrics::P2Quantile p50{0.50};
  metrics::P2Quantile p90{0.90};
  metrics::P2Quantile p99{0.99};

  void add(double x) {
    moments.add(x);
    p50.add(x);
    p90.add(x);
    p99.add(x);
  }
};

/// One series' QuantileMoments, folded off the recording thread.
///
/// The hot path (`add`) is one store into a block; a metrics::FoldPipe
/// folds full blocks on a helper thread in arrival order, and `folded()`
/// drains the pipe first (joining the helper and folding the partial
/// block inline) — DESIGN §13. Every statistic is bit-identical
/// to streaming each sample immediately, and memory stays O(1) in the run
/// length.
class QuantileTrack {
 public:
  void add(double x) { pipe_.push(x); }

  /// Every sample added so far, folded; joins the pipe's helper.
  [[nodiscard]] const QuantileMoments& folded() const { return pipe_.drain(); }

 private:
  // mutable: draining is a representation change invisible through the
  // const accessors.
  mutable metrics::FoldPipe<double, QuantileMoments> pipe_;
};

/// Rendered summary of one QuantileTrack, ready for export.
struct QuantileSummary {
  std::string name;
  std::uint64_t count = 0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

/// Everything one observed run produced: the stored trace window, the
/// counter set, and the histogram summaries. Value type so it can ride in
/// results, replication partials, and checkpoints.
struct ObsReport {
  bool enabled = false;
  std::uint32_t categories = 0;
  std::size_t trace_capacity = 0;
  std::uint64_t emitted = 0;  // seq numbers consumed
  std::uint64_t dropped = 0;  // evicted from a full ring
  std::vector<TraceEvent> events;
  CounterSet counters;
  std::vector<QuantileSummary> histograms;
};

/// Per-run observability hub: owns the TraceSink, the counters and the
/// sim-time histograms for one HybridServer::run. Created by the server
/// iff ObsConfig::enabled; subsystems get a Tracer handle and/or raw
/// counter pointers and stay oblivious to everything else.
class RunObserver {
 public:
  RunObserver(const ObsConfig& config, std::size_t num_classes);

  RunObserver(const RunObserver&) = delete;
  RunObserver& operator=(const RunObserver&) = delete;

  [[nodiscard]] Tracer tracer() noexcept { return Tracer(&sink_); }
  [[nodiscard]] QueueCounters* queue_counters() noexcept { return &queue_; }

  /// Sim-time sample of the pull-queue length (taken when it changes).
  void note_queue_len(std::size_t len) {
    series_.push({static_cast<double>(len), 0});
  }
  /// Response time of a served request, by class.
  void note_response(std::size_t cls, double delay) {
    if (cls < num_classes_) {
      series_.push({delay, static_cast<std::uint32_t>(cls + 1)});
    }
  }

  CounterSet counters;

  /// Folds the queue-hook tallies into the counter set and snapshots
  /// everything into a value-type report. Joins the series' fold helper.
  [[nodiscard]] ObsReport report() const;

 private:
  /// One sample of series `series`: 0 is the pull-queue length, 1 + c the
  /// response time of class c.
  struct SeriesSample {
    double x;
    std::uint32_t series;
  };
  struct SeriesFolder {
    explicit SeriesFolder(std::size_t n) : series(n) {}
    void add(const SeriesSample& s) { series[s.series].add(s.x); }
    std::vector<QuantileMoments> series;
  };

  ObsConfig config_;
  TraceSink sink_;
  QueueCounters queue_;
  std::size_t num_classes_;
  // Every series shares one pipe, so an observer runs one fold helper.
  // mutable: report() drains it.
  mutable metrics::FoldPipe<SeriesSample, SeriesFolder> series_;
};

}  // namespace pushpull::obs
