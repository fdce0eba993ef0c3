#pragma once

#include <cstddef>
#include <unordered_set>
#include <vector>

#include "des/event.hpp"

namespace pushpull::des {

/// Pending-event set: a binary min-heap on (time, id) with lazy
/// cancellation.
///
/// Cancelled events stay in the heap but are skipped on pop, with the
/// cancelled-id set purged as they surface. This keeps cancel O(1) and pop
/// amortized O(log n), which is the right trade for simulations where
/// cancellations are rare (timeouts that usually fire). Trace arrivals do
/// not pass through here — the Simulator streams them (see
/// Simulator::attach_arrivals) — so the set holds only the timers a run
/// has in flight.
class EventQueue {
 public:
  [[nodiscard]] bool empty() const noexcept { return live_count_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return live_count_; }

  /// Inserts an event; its id must be unique (the Simulator guarantees this).
  void push(Event event);

  /// Removes and returns the earliest live event. Precondition: !empty().
  [[nodiscard]] Event pop();

  /// The earliest live event, left in place. Precondition: !empty().
  /// Logically const: the lazy purge of cancelled entries it may trigger is
  /// invisible to callers (live set and observable order are unchanged), so
  /// the heap internals are `mutable` rather than forcing non-const access
  /// for a pure query.
  [[nodiscard]] const Event& top() const;

  /// Time of the earliest live event. Precondition: !empty().
  [[nodiscard]] SimTime next_time() const { return top().time; }

  /// Marks an event as cancelled. Returns false if the id is not pending
  /// (already fired, already cancelled, or never scheduled).
  bool cancel(EventId id);

  void clear();

 private:
  void drop_cancelled_top() const;

  // mutable: top() purges cancelled entries lazily without changing any
  // observable state (see its doc comment).
  mutable std::vector<Event> heap_;
  std::unordered_set<EventId> pending_;             // live, not-yet-fired ids
  mutable std::unordered_set<EventId> cancelled_;   // cancelled, still in heap_
  std::size_t live_count_ = 0;
};

}  // namespace pushpull::des
