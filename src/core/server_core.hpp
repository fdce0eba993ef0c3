#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "catalog/catalog.hpp"
#include "core/bandwidth_manager.hpp"
#include "core/config.hpp"
#include "core/pull_queue.hpp"
#include "core/result.hpp"
#include "des/simulator.hpp"
#include "fault/channel.hpp"
#include "metrics/class_stats.hpp"
#include "metrics/welford.hpp"
#include "obs/observer.hpp"
#include "resilience/overload.hpp"
#include "rng/xoshiro256ss.hpp"
#include "sched/pull/policy.hpp"
#include "sched/push/push_scheduler.hpp"
#include "workload/population.hpp"
#include "workload/request.hpp"

namespace pushpull::core {

/// Bit marking a synthetic hedged duplicate's request id. Hedge duplicates
/// live only inside the pull queue: they boost their item entry's
/// aggregate importance, are absorbed silently at delivery, and never
/// appear in the journal or the conservation ledger.
inline constexpr workload::RequestId kHedgeIdBit = 1ull << 63;

/// Where a run's decisions go besides its statistics, and the one input
/// hook a driver can take. The live driver journals the decisions
/// (serve::TraceRecorder implements the record_* calls); the closed-loop
/// driver turns each delivery into its client's next think phase. Every
/// call defaults to a no-op. Plain DES runs install no sink, so every call
/// site costs one branch and no virtual call.
class DecisionSink {
 public:
  virtual ~DecisionSink() = default;
  /// An arrival entered the server at its observed stamp.
  virtual void record_request(const workload::Request& /*request*/,
                              double /*observed_time*/) {}
  /// A transmission started carrying `delivered` committed requests.
  virtual void record_decision(bool /*push*/, double /*time*/,
                               catalog::ItemId /*item*/,
                               std::size_t /*delivered*/) {}
  /// The overload ladder moved between two levels.
  virtual void record_ladder(double /*time*/, int /*from*/, int /*to*/) {}
  /// Admission stopped; `skipped` planned arrivals were never injected.
  virtual void record_drain(double /*time*/, std::uint64_t /*skipped*/) {}
  /// A request was delivered at the kernel's now, after its statistics
  /// were recorded.
  virtual void on_delivered(const workload::Request& /*request*/) {}
};

/// The paper's hybrid scheduling server (Fig. 1 pseudo-code) as one
/// single-threaded state machine on a des::Simulator. Four drivers run it:
/// core::HybridServer attaches a trace and runs the kernel;
/// core::AdaptiveHybridServer does the same and re-ranks the push set
/// periodically (repartition); core::ClosedLoopServer issues each client's
/// next request from the delivery hook; the live serve::LiveServer attaches
/// its load plan (accelerated) or advances the kernel to the wall clock
/// (realtime). Every timer and transmission end is a kernel event, so the
/// kernel's (time, id) order is the one dispatch order of all of them.
///
/// Behavior per the paper, §3, over a rank order of the catalog that is the
/// item ids' own order unless a driver re-ranks it:
///  * the items ranked [0, K) are broadcast cyclically by the push
///    scheduler; client requests for them are ignored by the queue (the
///    client simply waits for the item to come around) but tracked here to
///    measure their delay;
///  * requests for the items ranked [K, D) enter the pull queue, aggregated
///    per item with arrival time, request count R_i and summed client
///    priority Q_i;
///  * after every push transmission, if the pull queue is non-empty the
///    entry with the maximum importance factor is extracted and transmitted;
///  * a pull transmission first draws a Poisson bandwidth demand and asks
///    the service class's bandwidth pool to admit it; on rejection the item
///    and all its pending requests are dropped (blocking);
///  * delivery is at transmission *end*, and only requests that arrived
///    before the transmission started are satisfied by it.
///
/// On top of the paper's model (each layer default-inert):
///  * impatience: an exponential patience timer per waiting request
///    (config.mean_patience), optionally scaled per class and tightened
///    inside a spike window (LiveExtensions) — the live deadline;
///  * faults (config.fault): every transmission end samples a
///    Gilbert–Elliott channel; a corrupted broadcast's audience waits for
///    the next cycle, a corrupted pull's requests re-request after a
///    bounded exponential backoff; a bounded pull queue sheds by drop-tail
///    or by evicting the lowest-priority client;
///  * crashes (config.resilience.crash): a seeded schedule kills the
///    server, voiding the transmission on air and wiping (cold) or
///    restoring (warm) the queue; the lost clients storm back after
///    recovery;
///  * the overload ladder (config.resilience.overload): normal →
///    shed-low-priority → widen-push → admission-control → brownout with
///    hysteresis, every move logged;
///  * hedging and drain (LiveExtensions): a still-queued pull request
///    posts one duplicate into its entry; at the drain instant admission
///    stops and the pull side flushes.
///
/// The run is deterministic given (catalog, population, config, arrivals):
/// the bandwidth-demand, patience, fault-channel, crash and storm draws
/// each use their own named stream, so enabling one layer never perturbs
/// another's draws.
class ServerCore {
 public:
  ServerCore(const catalog::Catalog& cat,
             const workload::ClientPopulation& pop, HybridConfig config,
             LiveExtensions live = {});

  ServerCore(const ServerCore&) = delete;
  ServerCore& operator=(const ServerCore&) = delete;

  /// Resets every run-scoped state for `planned` arrivals over a trace
  /// spanning `span` (the warm-up cut and the crash horizon) and schedules
  /// the crash, snapshot and ladder timers. `observer` (may be null) gets
  /// the trace and counters; `sink` (may be null) the decisions;
  /// `track_queue_depth` samples the pull-queue length at every change
  /// (the live report's queue-depth distribution).
  void begin(std::uint64_t planned, double span, obs::RunObserver* observer,
             DecisionSink* sink, bool track_queue_depth);
  /// Schedules the first serving decision at t = 0. Called after the
  /// driver attached its arrivals, so that event's id follows theirs.
  void start();
  /// Dispatches one arrival at the kernel's current time; `request.arrival`
  /// is its observed stamp, which latency is measured from. Ignored once a
  /// drain stopped admission.
  void on_arrival(const workload::Request& request);
  /// Re-ranks the catalog: the push set becomes the first `cutoff` (plus
  /// any widen-push boost) items of `order`, a permutation of the catalog's
  /// ids. Pending work moves across the boundary and the push program
  /// restarts at rank 0, even when the push set is unchanged. The push
  /// scheduler sees ranks, so a non-flat program weights rank r by item r's
  /// catalog attributes.
  void repartition(std::span<const catalog::ItemId> order,
                   std::size_t cutoff);
  /// Runs the kernel until every arrival settled — or, with drain_after
  /// set, until admission stopped at the first event at or past the drain
  /// instant and the pull side flushed. done() is false afterwards only
  /// when the kernel ran dry first (a stall).
  void run();
  /// Stops admission at `at`: only injected requests can still settle,
  /// the ladder stops evaluating and the pull side flushes.
  void engage_drain(double at, std::uint64_t skipped);
  /// Every arrival settled, or (drained) the pull side is empty.
  [[nodiscard]] bool done() const noexcept;
  /// Closes the queue-length integral at end_time() and stamps the
  /// observer's kernel counters. Call once, after the run.
  void finish();

  [[nodiscard]] SimResult result() const;
  /// The ledger, counted structurally from what is still waiting.
  [[nodiscard]] ConservationLedger ledger() const;

  [[nodiscard]] des::Simulator& sim() noexcept { return sim_; }
  [[nodiscard]] const HybridConfig& config() const noexcept { return config_; }
  [[nodiscard]] bool draining() const noexcept { return draining_; }
  [[nodiscard]] double drain_time() const noexcept { return drain_time_; }
  [[nodiscard]] std::uint64_t skipped_arrivals() const noexcept {
    return skipped_;
  }
  [[nodiscard]] std::uint64_t arrivals() const noexcept { return arrivals_; }
  [[nodiscard]] std::uint64_t hedges_posted() const noexcept {
    return hedges_posted_;
  }
  [[nodiscard]] std::uint64_t hedges_absorbed() const noexcept {
    return hedges_absorbed_;
  }
  /// The last settlement's instant (no earlier than the drain instant).
  [[nodiscard]] double end_time() const noexcept;
  /// Pull-queue depth samples; null unless begin() asked for them.
  [[nodiscard]] const obs::QuantileTrack* queue_depth() const noexcept {
    return queue_depth_ ? &*queue_depth_ : nullptr;
  }
  [[nodiscard]] const metrics::ClassCollector& collector() const noexcept {
    return *collector_;
  }

 private:
  void serve_next(bool just_did_push);
  /// Starts serving if the server sleeps (pure pull on an empty queue).
  void wake();
  void start_push();
  void start_pull();
  void deliver(const workload::Request& request, bool via_push);
  void settle_one();
  void note_queue_len() { note_queue_len_at(sim_.now()); }
  void note_queue_len_at(double now);
  /// Enters `request` into the pull queue (admission already passed).
  void enqueue_pull(const workload::Request& request);
  void arm_patience(const workload::Request& request);
  void disarm_patience(workload::RequestId request);
  void on_patience_expired(const workload::Request& request);

  /// Samples the fault channel for one finished transmission; always false
  /// when fault injection is disabled (and consumes no randomness).
  [[nodiscard]] bool transmission_corrupted();
  /// Handles a corrupted pull transmission: schedules bounded-backoff
  /// re-requests and settles requests that exhausted their retries.
  void on_pull_corrupted(const sched::PullEntry& entry);
  /// Re-enters a request into the pull queue (retry, storm, de-widened
  /// park), waking the server if it went idle in the meantime.
  void requeue_pull(const workload::Request& request);
  /// Admission control of the bounded pull queue. Returns true when
  /// `request` may enter (possibly after evicting a lower-priority victim);
  /// false when it was shed — in that case the request is already settled.
  [[nodiscard]] bool admit_pull(const workload::Request& request);
  /// Settles a request removed by admission control.
  void shed_request(const workload::Request& request);

  // --- hedging ------------------------------------------------------------
  void arm_hedge(const workload::Request& request);
  void disarm_hedge(workload::RequestId request);
  void on_hedge_fire(const workload::Request& request);
  /// Drops the live duplicate riding with `primary`, if any.
  void remove_hedge_dup(const workload::Request& primary);
  /// Real (non-duplicate) requests in the pull queue.
  [[nodiscard]] std::size_t queued_requests() const noexcept {
    return pull_queue_.total_requests() - hedged_.size();
  }

  // --- resilience layer ---------------------------------------------------

  /// Push cutoff currently in force: the base K plus the ladder's
  /// widen-push boost, clamped to the catalog.
  [[nodiscard]] std::size_t effective_cutoff() const noexcept {
    return push_cut_;
  }
  /// Sets the base cutoff and the widen-push boost (no migration).
  void set_cutoff(std::size_t cutoff, std::size_t boost) noexcept;
  /// True when `item` is in the push set in force.
  [[nodiscard]] bool pushed(catalog::ItemId item) const noexcept {
    return rank_[item] < effective_cutoff();
  }
  /// Pull-queue capacity in force: the hard fault cap wins, else the
  /// ladder's soft cap at shed-low-priority and above (0 = unbounded).
  [[nodiscard]] std::size_t effective_queue_capacity() const noexcept;
  /// Shed policy in force (the ladder forces drop-lowest-priority at
  /// shed-low-priority and above).
  [[nodiscard]] fault::ShedPolicy effective_shed_policy() const noexcept;
  /// True when the ladder's admission control refuses this class.
  [[nodiscard]] bool uplink_rejected(workload::ClassId cls) const noexcept;

  /// The server dies: void the in-flight transmission, wipe (cold) or
  /// restore (warm) the queue, storm the lost clients, schedule recovery.
  void on_crash();
  void on_recovered();
  /// One client whose pending work a crash wiped: re-requests at
  /// `recovery + rerequest_timeout + U(0, storm_spread)`.
  void storm_rerequest(const workload::Request& request, double crash_time,
                       double recovery_time);
  /// Periodic warm-recovery snapshot of the pull queue (versioned codec).
  void take_snapshot();
  /// Periodic ladder evaluation; applies level actions on transitions.
  void evaluate_overload();
  void apply_overload_level(resilience::OverloadLevel level);
  /// Sets the widen-push boost and moves the boundary if the cutoff moved.
  void apply_cutoff_boost(std::size_t boost);
  /// The one migration across a moved push boundary, after the cutoff and
  /// rank order took their new values: requests queued for `to_push` items
  /// become push waiters, waiters of `to_pull` items re-enter the pull
  /// queue, and the push program restarts at rank 0.
  void move_boundary(std::span<const catalog::ItemId> to_push,
                     std::span<const catalog::ItemId> to_pull);

  /// Hands a push transmission's waiter list back to spare_waiters_.
  void recycle_waiters(std::vector<workload::Request>&& waiters) {
    if (waiters.capacity() == 0) return;
    waiters.clear();
    spare_waiters_.push_back(std::move(waiters));
  }

  [[nodiscard]] bool measured(const workload::Request& request) const noexcept {
    return request.arrival >= warmup_time_;
  }

  const catalog::Catalog* catalog_;
  const workload::ClientPopulation* population_;
  HybridConfig config_;
  LiveExtensions live_;
  bool hedging_ = false;

  des::Simulator sim_;
  PullQueue pull_queue_;
  std::unique_ptr<sched::PushScheduler> push_sched_;
  std::unique_ptr<sched::PullPolicy> pull_policy_;
  BandwidthManager bandwidth_;
  rng::Xoshiro256ss demand_eng_;
  rng::Xoshiro256ss patience_eng_;
  // Present iff config_.fault.enabled; samples one state transition and one
  // corruption draw per downlink transmission.
  std::optional<fault::GilbertElliottChannel> channel_;

  // The rank order: order_[rank] is an item, rank_[item] its rank. begin()
  // resets it to the identity.
  std::vector<catalog::ItemId> order_;
  std::vector<catalog::ItemId> rank_;
  std::vector<std::vector<workload::Request>> push_waiters_;
  // Cleared waiter lists of finished push broadcasts; start_push swaps one
  // into the item it puts on air, so parking a request rarely allocates.
  std::vector<std::vector<workload::Request>> spare_waiters_;
  // Pending abandonment timers, keyed by request id; a timer is disarmed
  // the moment its request is committed to a transmission (or dropped).
  std::unordered_map<workload::RequestId, des::EventId> patience_;
  // Re-requests already issued per pull request, keyed by request id; an
  // entry exists only while the request has suffered >= 1 corruption.
  std::unordered_map<workload::RequestId, std::uint32_t> retry_count_;
  std::unique_ptr<metrics::ClassCollector> collector_;

  // Run-scoped state.
  // The push cutoff before the widen-push boost: config_.cutoff until a
  // repartition moves it. push_cut_ caches effective_cutoff(), which the
  // serving loop and every arrival read.
  std::size_t cutoff_ = 0;
  std::size_t push_cut_ = 0;
  des::SimTime warmup_time_ = 0.0;
  std::uint64_t to_settle_ = 0;
  std::uint64_t settled_ = 0;
  std::uint64_t arrivals_ = 0;
  double last_settle_ = 0.0;
  bool server_busy_ = false;
  std::uint64_t push_transmissions_ = 0;
  std::uint64_t pull_transmissions_ = 0;
  std::uint64_t blocked_transmissions_ = 0;
  std::uint64_t corrupted_push_transmissions_ = 0;
  std::uint64_t corrupted_pull_transmissions_ = 0;
  // Real requests committed to the transmission on air, and retry
  // backoffs not yet matured — the structural in-flight count.
  std::uint64_t on_air_ = 0;
  std::uint64_t retries_pending_ = 0;
  // Time-weighted pull-queue-length integral (for E[L_pull]).
  double queue_len_area_ = 0.0;
  des::SimTime queue_len_last_t_ = 0.0;
  std::size_t max_queue_len_ = 0;
  std::optional<obs::QuantileTrack> queue_depth_;

  // --- live extensions state ----------------------------------------------
  // Hedge timers by primary id, and the primaries whose duplicate is in
  // the queue; both stay empty unless hedging.
  std::unordered_map<workload::RequestId, des::EventId> hedge_timers_;
  std::unordered_set<workload::RequestId> hedged_;
  std::uint64_t hedges_posted_ = 0;
  std::uint64_t hedges_absorbed_ = 0;
  bool draining_ = false;
  double drain_time_ = 0.0;
  std::uint64_t skipped_ = 0;
  DecisionSink* sink_ = nullptr;

  // --- resilience state ---------------------------------------------------
  // True while a non-empty crash schedule is in force this run; in-flight
  // transmissions are tracked (and the storm engine derived) only then, so
  // the fault-free path stays untouched.
  bool crash_active_ = false;
  bool down_ = false;
  // Bumped by every crash; a transmission-end event whose captured epoch is
  // stale was voided by a crash and must not deliver.
  std::uint64_t server_epoch_ = 0;
  // The transmission on air, kept here so a crash can unwind it. At most
  // one exists at a time (the downlink is serial).
  struct InFlightPush {
    catalog::ItemId item = 0;
    std::vector<workload::Request> catching;
  };
  struct InFlightPull {
    sched::PullEntry entry;
    workload::ClassId cls = 0;
    double demand = 0.0;
  };
  std::optional<InFlightPush> inflight_push_;
  std::optional<InFlightPull> inflight_pull_;
  // Pull work that arrived (or matured from a retry backoff) while the
  // server was dark; drained at recovery.
  std::vector<workload::Request> downtime_parked_;
  // Storm jitter; derived iff crash_active_ (own named stream).
  std::optional<rng::Xoshiro256ss> storm_eng_;
  std::uint64_t snapshot_fingerprint_ = 0;
  // Latest encoded warm-recovery snapshot ("" = none taken yet).
  std::string latest_snapshot_;
  std::uint64_t crash_count_ = 0;
  double total_downtime_ = 0.0;
  std::uint64_t storm_rerequests_ = 0;
  std::uint64_t largest_storm_ = 0;
  metrics::Welford recovery_latency_;

  // --- observability ------------------------------------------------------
  // The run's observer, if any. Strictly write-only from the simulation's
  // perspective: nothing below ever reads observer state, so traced and
  // untraced runs are bit-identical.
  obs::RunObserver* obs_ = nullptr;
  // Inert (null sink) without an observer; every emission then costs one
  // branch.
  obs::Tracer trace_;
  // des kernel counter baselines at run start (the kernel keeps lifetime
  // totals; the report wants this run's deltas).
  std::uint64_t des_scheduled_base_ = 0;
  std::uint64_t des_dispatched_base_ = 0;
  std::uint64_t des_cancelled_base_ = 0;

  resilience::OverloadController overload_;
  // The pending ladder evaluation; cancelled when a drain engages.
  des::EventId ladder_event_ = 0;
  // Per-class blocking EWMA (ladder input); updated per pull service
  // attempt, only while the ladder is enabled.
  std::vector<double> blocking_ewma_;
  // Extra push-cutoff items granted by widen-push (0 at normal).
  std::size_t cutoff_boost_ = 0;
};

}  // namespace pushpull::core
