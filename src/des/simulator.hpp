#pragma once

#include <cstddef>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "des/event.hpp"
#include "des/event_queue.hpp"
#include "obs/trace.hpp"

namespace pushpull::des {

/// Sequential discrete-event simulator: a virtual clock, a pending-event set
/// and at most one ordered arrival stream. Components schedule closures at
/// absolute or relative virtual times; `run` dispatches them, and the
/// stream's arrivals, in (time, id) order.
///
/// The kernel is deliberately minimal — model-level concepts (servers,
/// queues, channels) live in the modules that own them, which keeps the
/// kernel reusable for every experiment in this repository.
class Simulator {
 public:
  static constexpr SimTime kForever = std::numeric_limits<SimTime>::infinity();

  /// Arrival time of stream entry i; must be non-decreasing in i.
  using ArrivalTime = std::function<SimTime(std::size_t)>;
  /// Dispatches stream entry i.
  using ArrivalFire = std::function<void(std::size_t)>;

  [[nodiscard]] SimTime now() const noexcept { return now_; }
  [[nodiscard]] bool idle() const noexcept {
    return queue_.empty() && !stream_.live();
  }
  /// Scheduled, uncancelled events not yet fired — reserved but unfired
  /// stream arrivals included.
  [[nodiscard]] std::size_t pending_events() const noexcept {
    return queue_.size() + (stream_.count - stream_.next);
  }
  [[nodiscard]] std::uint64_t dispatched_events() const noexcept {
    return dispatched_;
  }
  [[nodiscard]] std::uint64_t scheduled_events() const noexcept {
    return scheduled_;
  }
  [[nodiscard]] std::uint64_t cancelled_events() const noexcept {
    return cancelled_;
  }

  /// Installs (or, with a default-constructed Tracer, removes) the trace
  /// handle. The kernel emits only bounded `queue`-category "evq_level"
  /// marks when pending_events() first reaches each power-of-two size from
  /// 1024 up — a high-water profile of event-set growth that costs one
  /// comparison per schedule when tracing is off.
  void set_tracer(obs::Tracer tracer) noexcept { tracer_ = tracer; }

  /// Times a popped event carried a timestamp before the current clock.
  /// step() still throws on the first one, so this reads 0 for any run that
  /// completed — the counter exists so harnesses can assert the property
  /// machine-verifiably instead of trusting the kernel.
  [[nodiscard]] std::uint64_t order_violations() const noexcept {
    return order_violations_;
  }

  /// Schedules `action` at absolute virtual time `when` (>= now()).
  /// A past or NaN time throws std::invalid_argument — scheduling into the
  /// past would silently rewind the clock on dispatch, so the invariant is
  /// enforced in every build type, not just with asserts.
  template <typename Fn>
  EventId schedule_at(SimTime when, Fn&& action) {
    if (!(when >= now_)) {
      throw std::invalid_argument("Simulator: schedule_at(" +
                                  std::to_string(when) +
                                  ") is in the past (now = " +
                                  std::to_string(now_) + ") or NaN");
    }
    const EventId id = next_id_++;
    queue_.push(Event{when, id, std::forward<Fn>(action)});
    ++scheduled_;
    if (pending_events() >= evq_level_mark_) emit_evq_level();
    return id;
  }

  /// Attaches the ordered arrival stream: `count` arrivals, the i-th at
  /// `time_at(i)` (non-decreasing in i), dispatched by `fire(i)`.
  ///
  /// Ids [next, next + count) are reserved here, and the scheduled count
  /// and "evq_level" marks advance, exactly as `count` back-to-back
  /// schedule_at calls would. Dispatch then merges the stream head with
  /// the pending-event set by (time, id), so a run is event-for-event
  /// identical to one that pre-scheduled every arrival at this point —
  /// while the pending set holds only timers. A reserved arrival id is not
  /// cancellable (cancel() returns false): the stream is a cursor, not a
  /// set. A head earlier than now() (an unordered stream) throws on
  /// dispatch and counts one order violation. Throws std::logic_error if
  /// an unfinished stream is already attached; reset() drops it.
  void attach_arrivals(std::size_t count, ArrivalTime time_at,
                       ArrivalFire fire);

  /// Schedules `action` after a non-negative delay.
  template <typename Fn>
  EventId schedule_in(SimTime delay, Fn&& action) {
    return schedule_at(now_ + delay, std::forward<Fn>(action));
  }

  /// Cancels a pending event. Returns false if it already fired, was
  /// already cancelled, or is a stream arrival.
  bool cancel(EventId id) {
    const bool ok = queue_.cancel(id);
    if (ok) ++cancelled_;
    return ok;
  }

  /// Time of the next event to dispatch (stream arrival or pending event);
  /// kForever when idle.
  [[nodiscard]] SimTime next_time() const {
    if (arrival_next()) return stream_.head_time;
    return queue_.empty() ? kForever : queue_.next_time();
  }

  /// Dispatches the next event, advancing the clock to it. Returns false if
  /// no event is pending.
  bool step();

  /// Runs until the event set drains or the clock would pass `horizon`.
  /// Events scheduled exactly at the horizon still fire.
  void run_until(SimTime horizon);

  /// Runs until the event set drains.
  void run() { run_until(kForever); }

  /// Stops the current run_until() loop after the in-flight event returns.
  void request_stop() noexcept { stop_requested_ = true; }

  /// Drops all pending events and the arrival stream and resets the clock;
  /// dispatched count is kept.
  void reset();

 private:
  static constexpr std::size_t kEvqLevelBase = 1024;

  /// Cursor over the attached arrivals: [0, next) have fired.
  struct ArrivalStream {
    std::size_t count = 0;
    std::size_t next = 0;
    EventId first_id = 0;    // id reserved for arrival 0
    SimTime head_time = 0;   // time_at(next), valid while live()
    ArrivalTime time_at;
    ArrivalFire fire;
    [[nodiscard]] bool live() const noexcept { return next < count; }
  };

  /// True when the stream head comes before the pending set's top in
  /// (time, id) order (or the pending set is empty).
  [[nodiscard]] bool arrival_next() const;
  /// Dispatches the stream head (arrival) or the pending set's top.
  void dispatch(bool arrival);
  /// Emits every "evq_level" mark pending_events() has reached.
  void emit_evq_level();

  EventQueue queue_;
  ArrivalStream stream_;
  SimTime now_ = 0.0;
  EventId next_id_ = 1;
  std::uint64_t dispatched_ = 0;
  std::uint64_t scheduled_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t order_violations_ = 0;
  bool stop_requested_ = false;
  obs::Tracer tracer_;
  std::size_t evq_level_mark_ = kEvqLevelBase;
};

}  // namespace pushpull::des
