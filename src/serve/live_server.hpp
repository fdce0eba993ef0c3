#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "catalog/catalog.hpp"
#include "core/server_core.hpp"
#include "metrics/class_stats.hpp"
#include "obs/observer.hpp"
#include "resilience/overload.hpp"
#include "serve/clock.hpp"
#include "serve/completion_queue.hpp"
#include "serve/journal.hpp"
#include "serve/load_driver.hpp"
#include "serve/record.hpp"
#include "serve/serve_config.hpp"
#include "workload/population.hpp"

namespace pushpull::serve {

/// What one live run produced. Every field is a pure function of the
/// processed event sequence, so an accelerated run's rendered report is
/// byte-stable across repeats of the same seed.
struct ServeReport {
  bool accelerated = false;
  double duration = 0.0;
  double target_qps = 0.0;
  /// Serve-time instant of the last settled request (broadcast units).
  double end_time = 0.0;
  std::uint64_t arrivals = 0;
  std::uint64_t served = 0;
  std::uint64_t push_transmissions = 0;
  std::uint64_t pull_transmissions = 0;
  /// arrivals / end_time — the load actually absorbed, against target_qps.
  double achieved_qps = 0.0;
  /// Time-weighted mean pull-queue length (same integral as the DES).
  double mean_pull_queue_len = 0.0;
  std::size_t max_pull_queue_len = 0;
  /// Pull-queue depth distribution, sampled at every queue transition.
  obs::QuantileSummary queue_depth;
  /// Completion-queue telemetry: events accepted + deepest backlog.
  std::uint64_t cq_posted = 0;
  std::size_t cq_high_water = 0;
  std::vector<metrics::ClassStats> per_class;

  // --- robustness (populated/rendered only when config.robust()) ----------
  bool robust = false;
  std::uint64_t timed_out = 0;
  std::uint64_t retries = 0;
  std::uint64_t lost = 0;
  std::uint64_t shed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t corrupted_push_transmissions = 0;
  std::uint64_t corrupted_pull_transmissions = 0;
  std::uint64_t hedges_posted = 0;
  std::uint64_t hedges_absorbed = 0;
  std::uint64_t ladder_transitions = 0;
  resilience::OverloadLevel max_overload_level =
      resilience::OverloadLevel::kNormal;
  /// Every ladder move in event order (mirrors core::SimResult's log).
  std::vector<resilience::OverloadTransition> overload_transitions;
  bool drained = false;
  double drain_time = 0.0;
  /// Planned arrivals never injected because the drain stopped admission.
  std::uint64_t skipped_arrivals = 0;
  /// The machine-checked conservation identity (DESIGN §10), also sealed
  /// into the journal footer.
  ConservationLedger ledger;
};

/// Deterministic multi-line rendering (obs::render_number throughout): a
/// summary JSON line, then one line per class with mean/p50/p95/p99 wait.
/// Robustness fields are appended only for robust configs, so plain runs
/// render byte-identically to previous releases. Shared by the CLI,
/// bench/serve_qps, bench/serve_chaos and the reproducibility tests.
[[nodiscard]] std::string render_serve_report(const ServeReport& report);

/// The live driver of core::ServerCore: the same state machine the DES
/// runs, fed by a load plan or by pacer threads instead of a trace, and
/// reporting what a serving operator reads (achieved QPS, queue-depth
/// distribution, completion-queue telemetry, the conservation ledger).
/// Every timer and transmission end is an event of the core's kernel, so an
/// accelerated run and the DES replay of its own journal agree on every
/// statistic bit for bit, whatever live mechanisms are on.
///
/// The two run modes differ only in who produces events and how time
/// advances:
///  * run_accelerated — single-threaded; the driver's plan streams through
///    the kernel as its arrival stream, straight into the core, so the run
///    is a pure function of the seed and costs what a DES run does. Its
///    completion-queue telemetry reports the queue every arrival and slot
///    end would pass through one at a time;
///  * run_realtime — pacer threads post wall-stamped arrivals to the
///    CompletionQueue; the loop
///    advances the kernel to the wall clock (run_until), completing slots
///    and firing timers as it passes their logical times. Arrival stamps
///    are observed (skew is real and recorded); slot ends chain logically
///    so airtime accounting stays exact. SIGTERM (via set_drain_flag) or
///    drain_after triggers the graceful drain: admission stops, the pull
///    side flushes, the journal seals with the conservation ledger.
class LiveServer final : private core::DecisionSink {
 public:
  LiveServer(const catalog::Catalog& cat,
             const workload::ClientPopulation& pop, ServeConfig config);

  /// Drains the driver's whole plan on a virtual clock. `recorder` (may be
  /// null) receives every dispatched arrival and scheduling decision.
  [[nodiscard]] ServeReport run_accelerated(LoadDriver& driver,
                                            JournalSink* recorder);

  /// Consumes `planned` arrivals from `queue` (fed by LoadDriver pacers on
  /// `clock`), runs until all are settled (or the drain flushes), then
  /// reports. The queue must be closed by the producer side when the load
  /// ends.
  [[nodiscard]] ServeReport run_realtime(CompletionQueue& queue, Clock& clock,
                                         std::uint64_t planned,
                                         JournalSink* recorder);

  /// Observes the following runs (null = off): the core's trace and
  /// counters, the same vocabulary a DES run emits.
  void set_observer(obs::RunObserver* observer) noexcept {
    observer_ = observer;
  }

  /// Installs the external drain request flag (SIGTERM handler target).
  /// Polled by run_realtime; null disables.
  void set_drain_flag(const std::atomic<bool>* flag) noexcept {
    drain_flag_ = flag;
  }

 private:
  // core::DecisionSink: decisions go to the journal.
  void record_request(const workload::Request& request,
                      double observed_time) override;
  void record_decision(bool push, double time, catalog::ItemId item,
                       std::size_t delivered) override;
  void record_ladder(double time, int from, int to) override;
  void record_drain(double time, std::uint64_t skipped) override;

  /// Machine-checks the conservation identity (throws std::logic_error on
  /// any imbalance), seals the journal and builds the report. `queue` is
  /// the realtime run's queue, null for an accelerated run.
  [[nodiscard]] ServeReport finish(const CompletionQueue* queue);

  ServeConfig config_;
  core::ServerCore core_;
  JournalSink* recorder_ = nullptr;
  obs::RunObserver* observer_ = nullptr;
  const std::atomic<bool>* drain_flag_ = nullptr;
};

}  // namespace pushpull::serve
