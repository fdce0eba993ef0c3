#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "metrics/p2_quantile.hpp"
#include "metrics/welford.hpp"
#include "obs/config.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace pushpull::obs {

/// Welford moments plus P² tail estimates for one sim-time series
/// (pull-queue length, per-class response time).
///
/// Samples are buffered and folded into the estimators lazily: the hot
/// path (`add`) is one store into a fixed-size block, and the Welford +
/// 3×P² arithmetic runs at the first accessor call (report/export time) —
/// DESIGN §13. Blocks, unlike one growing vector, never copy what they
/// hold and touch each page once. Folding replays the blocks in arrival
/// order, so every statistic is bit-identical to streaming each sample
/// immediately. The buffer is capped at kFoldChunk samples (folded eagerly
/// past that), keeping memory O(1) in the run length.
class QuantileTrack {
 public:
  QuantileTrack() : p50_(0.50), p90_(0.90), p99_(0.99) {}

  void add(double x) {
    if (fill_ == kBlock) {
      if (blocks_.size() * kBlock >= kFoldChunk) fold();
      blocks_.push_back(std::make_unique_for_overwrite<double[]>(kBlock));
      fill_ = 0;
    }
    blocks_.back()[fill_++] = x;
  }

  [[nodiscard]] const metrics::Welford& moments() const {
    fold();
    return moments_;
  }
  [[nodiscard]] double p50() const {
    fold();
    return p50_.value();
  }
  [[nodiscard]] double p90() const {
    fold();
    return p90_.value();
  }
  [[nodiscard]] double p99() const {
    fold();
    return p99_.value();
  }

 private:
  static constexpr std::size_t kFoldChunk = std::size_t{1} << 20;
  static constexpr std::size_t kBlock = std::size_t{1} << 13;  // 64 KiB

  void fold() const {
    for (std::size_t b = 0; b < blocks_.size(); ++b) {
      const std::size_t n = b + 1 == blocks_.size() ? fill_ : kBlock;
      for (std::size_t i = 0; i < n; ++i) {
        const double x = blocks_[b][i];
        moments_.add(x);
        p50_.add(x);
        p90_.add(x);
        p99_.add(x);
      }
    }
    blocks_.clear();
    fill_ = kBlock;
  }

  // mutable: folding is a representation change invisible through the
  // const accessors.
  mutable std::vector<std::unique_ptr<double[]>> blocks_;
  // Samples in blocks_.back(); kBlock when there is none, so the next add
  // opens a block.
  mutable std::size_t fill_ = kBlock;
  mutable metrics::Welford moments_;
  mutable metrics::P2Quantile p50_;
  mutable metrics::P2Quantile p90_;
  mutable metrics::P2Quantile p99_;
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
    queue_len_.add(static_cast<double>(len));
  }
  /// Response time of a served request, by class.
  void note_response(std::size_t cls, double delay) {
    if (cls < response_.size()) response_[cls].add(delay);
  }

  CounterSet counters;

  /// Folds the queue-hook tallies into the counter set and snapshots
  /// everything into a value-type report.
  [[nodiscard]] ObsReport report() const;

 private:
  ObsConfig config_;
  TraceSink sink_;
  QueueCounters queue_;
  QuantileTrack queue_len_;
  std::vector<QuantileTrack> response_;  // one per class
};

}  // namespace pushpull::obs
