#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "des/event.hpp"

namespace pushpull::des {

/// Pending-event set: a binary min-heap on (time, id) with lazy
/// cancellation.
///
/// Cancelled events stay in the heap but are skipped on pop, their ids
/// forgotten as they surface. This keeps cancel O(1) and pop amortized
/// O(log n), which is the right trade for simulations where cancellations
/// are rare (timeouts that usually fire). The state of every id in the heap
/// (live or cancelled) sits in one flat open-addressing table, so steady
/// push/pop/cancel traffic allocates nothing once heap and table reach
/// their working sizes. Trace arrivals do not pass through here — the
/// Simulator streams them (see Simulator::attach_arrivals) — so the set
/// holds only the timers a run has in flight.
class EventQueue {
 public:
  [[nodiscard]] bool empty() const noexcept { return live_count_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return live_count_; }

  /// Inserts an event. Throws std::logic_error if its id is already in the
  /// queue, live or cancelled (the Simulator issues fresh ids).
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
  /// State of each id in heap_: linear probing on a power-of-two table,
  /// backward-shift deletion (no tombstones), grown at half load and never
  /// shrunk.
  class IdTable {
   public:
    enum class State : std::uint8_t { kEmpty, kLive, kCancelled };

    /// The id's state, kEmpty when it is not in the table.
    [[nodiscard]] State get(EventId id) const noexcept;
    /// Precondition: `id` is not in the table.
    void insert(EventId id, State state);
    /// Precondition: `id` is in the table.
    void set(EventId id, State state) noexcept;
    /// Precondition: `id` is in the table.
    void erase(EventId id) noexcept;
    void clear() noexcept;

   private:
    struct Slot {
      EventId id = 0;
      State state = State::kEmpty;
    };

    [[nodiscard]] std::size_t home(EventId id) const noexcept;
    /// The slot holding `id`, or the empty slot ending its probe run.
    [[nodiscard]] std::size_t probe(EventId id) const noexcept;
    void grow();

    std::vector<Slot> slots_;
    std::size_t used_ = 0;
    unsigned shift_ = 64;  // 64 - log2(slots_.size())
  };

  void drop_cancelled_top() const;

  // mutable: top() purges cancelled entries lazily without changing any
  // observable state (see its doc comment).
  mutable std::vector<Event> heap_;
  mutable IdTable ids_;
  // Live events; heap_.size() - live_count_ cancelled ones still wait in
  // heap_ to surface.
  std::size_t live_count_ = 0;
};

}  // namespace pushpull::des
